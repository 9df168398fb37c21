package pop

import (
	"context"
	"strings"
	"testing"

	"fivegsim/internal/deploy"
	"fivegsim/internal/obs"
)

// Determinism-equivalence suite, mirroring the top-level parallel_test.go
// contract: a population run's reports must be byte-identical for any
// Workers value, across seeds. The comparison is over the raw formatted
// report lines (cell-load fingerprint + fairness summary) — bytes, not
// tolerances — so any float reordering in the tick pipeline fails loud.

func reportFingerprint(p *Population) string {
	var b strings.Builder
	for _, l := range p.CellLoadLines() {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for _, l := range p.FairnessLines() {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// runFull runs every tick of m through RunContext.
func runFull(c *deploy.Campus, m Model, seed int64, workers int, t Telemetry) *Population {
	p, _ := RunContext(context.Background(), c, m, seed, workers, t)
	return p
}

func popModelForTest(n, ticks int) Model {
	m := DefaultModel()
	m.N = n
	m.Ticks = ticks
	return m
}

func TestPopulationWorkersEquivalence(t *testing.T) {
	n, ticks := 2000, 30
	if testing.Short() {
		n, ticks = 600, 10
	}
	for _, seed := range []int64{1, 42, 7} {
		campus := deploy.New(seed)
		base := reportFingerprint(runFull(campus, popModelForTest(n, ticks), seed, 1, Telemetry{}))
		for _, workers := range []int{2, 8} {
			got := reportFingerprint(runFull(campus, popModelForTest(n, ticks), seed, workers, Telemetry{}))
			if got != base {
				t.Fatalf("seed %d: workers %d report differs from workers 1:\n--- w1 ---\n%s--- w%d ---\n%s",
					seed, workers, base, workers, got)
			}
		}
	}
}

// TestPopulationRebuildEquivalence pins that rebuilding the population
// from scratch with the same seed reproduces the identical report —
// i.e. no hidden state leaks between runs through the shared campus.
func TestPopulationRebuildEquivalence(t *testing.T) {
	campus := deploy.New(42)
	m := popModelForTest(400, 8)
	a := reportFingerprint(runFull(campus, m, 42, 4, Telemetry{}))
	b := reportFingerprint(runFull(campus, m, 42, 4, Telemetry{}))
	if a != b {
		t.Fatalf("same-seed rebuild differs:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestPopulationTelemetryReportUnchanged pins that attaching live
// telemetry is purely observational: the reports are byte-identical
// with and without a registry, tracer and progress hook attached — the
// counters read the simulation, never steer it (no RNG draws, no state
// writes on the telemetry path) — at every worker count.
func TestPopulationTelemetryReportUnchanged(t *testing.T) {
	m := popModelForTest(600, 10)
	campus := deploy.New(42)
	base := reportFingerprint(runFull(campus, m, 42, 1, Telemetry{}))
	for _, workers := range []int{1, 4} {
		tel := Telemetry{Obs: obs.NewRegistry(), Trace: obs.NewTracer(), OnTick: func(int, int) {}}
		got := reportFingerprint(runFull(campus, m, 42, workers, tel))
		if got != base {
			t.Fatalf("workers %d: telemetry changed the report:\n--- off ---\n%s--- on ---\n%s",
				workers, base, got)
		}
	}
}

// TestPopulationSeedSensitivity guards against the opposite failure:
// everything collapsing to one output regardless of seed.
func TestPopulationSeedSensitivity(t *testing.T) {
	m := popModelForTest(400, 8)
	a := reportFingerprint(runFull(deploy.New(1), m, 1, 1, Telemetry{}))
	b := reportFingerprint(runFull(deploy.New(2), m, 2, 1, Telemetry{}))
	if a == b {
		t.Fatal("seeds 1 and 2 produced identical reports")
	}
}

// TestPopulationPPPCount pins the PPP sizing path: N=0 draws the count
// from λ·A and the draw is seed-stable.
func TestPopulationPPPCount(t *testing.T) {
	campus := deploy.New(7)
	m := DefaultModel()
	m.Ticks = 1
	a := New(campus, m, 7, Telemetry{})
	b := New(campus, m, 7, Telemetry{})
	if a.Len() != b.Len() {
		t.Fatalf("same-seed PPP counts differ: %d vs %d", a.Len(), b.Len())
	}
	mean := m.LambdaPerKm2 * campus.AreaKm2()
	lo, hi := int(mean*0.8), int(mean*1.2)
	if a.Len() < lo || a.Len() > hi {
		t.Fatalf("PPP count %d outside ±20%% of mean %.0f", a.Len(), mean)
	}
}
