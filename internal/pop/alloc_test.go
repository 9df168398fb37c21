package pop

import (
	"math"
	"runtime"
	"testing"

	"fivegsim/internal/deploy"
	"fivegsim/internal/obs"
	"fivegsim/internal/radio"
)

// Allocation guards for the tick hot path: after New (which pre-warms
// the campus field maps and builds the whole arena), a tick must not
// allocate — static or walking, web-heavy or saturating. The 3 000-UE
// guards run at unit-test speed; the 100k-UE guards hold the same
// invariant at the operating point the BenchmarkPopTick100k benches
// measure.

func allocsPerTick(t *testing.T, m Model, runs int) float64 {
	t.Helper()
	campus := deploy.New(42)
	p := New(campus, m, 42, Telemetry{})
	p.Tick(1) // first tick settles any remaining lazy state
	return testing.AllocsPerRun(runs, func() {
		p.Tick(1)
	})
}

func TestTickZeroAllocStatic(t *testing.T) {
	m := DefaultModel()
	m.N = 3000
	m.MaxSpeedKmh = 0
	if got := allocsPerTick(t, m, 10); got != 0 {
		t.Fatalf("static tick allocates %.1f times, want 0", got)
	}
}

func TestTickZeroAllocWalking(t *testing.T) {
	m := DefaultModel()
	m.N = 3000
	if got := allocsPerTick(t, m, 10); got != 0 {
		t.Fatalf("walking tick allocates %.1f times, want 0", got)
	}
}

// TestTickZeroAllocWithTelemetry: attaching live telemetry must not
// re-introduce steady-state allocations — the instruments are
// pre-registered in New and the shard/cell accumulator slots are reused
// across ticks, so the tick with a registry and tracer stays at
// 0 allocs/op too (BenchmarkPopTick100kTel measures the same path at
// scale).
func TestTickZeroAllocWithTelemetry(t *testing.T) {
	m := DefaultModel()
	m.N = 3000
	campus := deploy.New(42)
	p := New(campus, m, 42, Telemetry{Obs: obs.NewRegistry(), Trace: obs.NewTracer()})
	p.Tick(1)
	got := testing.AllocsPerRun(10, func() {
		p.Tick(1)
	})
	if got != 0 {
		t.Fatalf("instrumented tick allocates %.1f times, want 0", got)
	}
}

// model100k is the 100 000-UE operating point of the tick benches and
// the scale guards.
func model100k() Model {
	m := DefaultModel()
	m.N = 100_000
	return m
}

// churnModel100k arms every population dynamic at 100k UEs: birth–death
// churn in steady-state balance (333 arrivals per tick × a 300-tick mean
// lifetime ≈ 100k alive), the stateful A3 hand-off machine and
// load-coupled interference.
func churnModel100k() Model {
	m := model100k()
	m.Churn = ChurnModel{Enabled: true, ArrivalPerTick: 333, MeanLifetimeTicks: 300}
	m.A3 = A3Model{Enabled: true, HysteresisDB: 3, TTTTicks: 3}
	m.LoadCoupling = true
	return m
}

func TestTickZeroAlloc100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-UE arena; the 3 000-UE guards cover -short")
	}
	if got := allocsPerTick(t, model100k(), 3); got != 0 {
		t.Fatalf("100k-UE tick allocates %.1f times, want 0", got)
	}
}

// TestDynamicsTickZeroAlloc100k: births reuse free-listed arena slots,
// so even with churn, A3 and load coupling all armed the 100k-UE tick
// allocates nothing.
func TestDynamicsTickZeroAlloc100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-UE arena; TestDynamicsTickAllocs covers -short")
	}
	if got := allocsPerTick(t, churnModel100k(), 3); got != 0 {
		t.Fatalf("100k-UE dynamics tick allocates %.1f times, want 0", got)
	}
}

// benchTick100k measures one serial population tick — move, traffic
// draw, attach through the warmed field maps, counting sort, per-cell PRB
// scheduling and throughput accumulation — under m with tel attached.
// The arena is built and the first tick run before the timer starts, so
// the loop measures the steady state.
func benchTick100k(b *testing.B, m Model, tel Telemetry) {
	b.ReportAllocs()
	p := New(deploy.New(1), m, 1, tel)
	defer p.RestoreLoads()
	p.Tick(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Tick(1)
	}
}

// BenchmarkPopTick100k is the static-population tick at 100k UEs.
func BenchmarkPopTick100k(b *testing.B) { benchTick100k(b, model100k(), Telemetry{}) }

// BenchmarkPopTick100kChurn prices the population dynamics against the
// static tick.
func BenchmarkPopTick100kChurn(b *testing.B) { benchTick100k(b, churnModel100k(), Telemetry{}) }

// BenchmarkPopTick100kTel prices live telemetry (registry and tracer):
// the sharded-counter accumulate/merge and the per-tick span.
func BenchmarkPopTick100kTel(b *testing.B) {
	benchTick100k(b, model100k(), Telemetry{Obs: obs.NewRegistry(), Trace: obs.NewTracer()})
}

// TestStaticArenaBytes: without churn or A3 the arena holds no dynamics
// state, so a 20 000-UE DefaultModel population on a warmed campus
// costs at most 100 B per UE (about 95: eleven per-UE columns, the
// scheduler scratch and one RNG generator per 1024-UE shard).
func TestStaticArenaBytes(t *testing.T) {
	const n = 20_000
	campus := deploy.New(42)
	campus.WarmFieldMaps(1)
	m := DefaultModel()
	m.N = n
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := New(campus, m, 42, Telemetry{})
	runtime.ReadMemStats(&after)
	if perUE := float64(after.TotalAlloc-before.TotalAlloc) / n; perUE > 100 {
		t.Fatalf("New allocated %.1f B per UE for a static model, want at most 100", perUE)
	}
	runtime.KeepAlive(p)
}

// TestMeanUtilAllocFree: MeanUtil sums the sample window in place — no
// allocation — and in UtilSamples' order, so it equals the mean over
// UtilSamples bit for bit.
func TestMeanUtilAllocFree(t *testing.T) {
	m := DefaultModel()
	m.N = 2000
	m.Ticks = 12
	p := runFull(deploy.New(42), m, 42, 1, Telemetry{})
	for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
		if got := testing.AllocsPerRun(10, func() { p.MeanUtil(tech) }); got != 0 {
			t.Fatalf("%v: MeanUtil allocates %.1f times, want 0", tech, got)
		}
		var sum float64
		samples := p.UtilSamples(tech, nil)
		for _, u := range samples {
			sum += u
		}
		want := sum / float64(len(samples))
		if got := p.MeanUtil(tech); math.Float64bits(got) != math.Float64bits(want) || want == 0 {
			t.Fatalf("%v: MeanUtil %v, mean over UtilSamples %v", tech, got, want)
		}
	}
}
