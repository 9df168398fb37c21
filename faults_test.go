package fivegsim

import (
	"context"
	"testing"

	"fivegsim/internal/fault"
	"fivegsim/internal/obs"
	"fivegsim/internal/radio"
)

// TestFaultParallelEquivalence is the determinism-equivalence contract
// of the fault layer at the facade: with a scenario plan armed, the
// fault experiments must render identical Lines and Values for
// Workers=1 and Workers=8. X10 fans its scenario suite out over the
// engine; X11 fans out campaign walks under a coverage hole; both draw
// every injected event from seed-keyed substreams. X10's sweep points
// each report into their own registry, merged in index order, so its
// metrics match across worker counts too.
func TestFaultParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fault equivalence sweep is not short-mode work")
	}
	ids := []string{"X10", "X11"}
	cfg := Config{Seed: 42, Quick: true, Faults: fault.CellFailover.Plan()}
	cfg.Workers, cfg.Obs = 1, obs.NewRegistry()
	serial, err := RunExperimentsContext(context.Background(), cfg, ids...)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers, cfg.Obs = 8, obs.NewRegistry()
	parallel, err := RunExperimentsContext(context.Background(), cfg, ids...)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, serial, parallel, "faulted workers 1 vs 8")
	a, b := serial[0].Manifest.Metrics, parallel[0].Manifest.Metrics
	if len(a) != len(b) {
		t.Fatalf("X10 reports %d metrics at Workers=1, %d at Workers=8", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("X10 metric differs between worker counts:\nserial:   %v\nparallel: %v", a[i], b[i])
		}
	}

	// Distinct plans must not collide: the same campaign under a
	// different scenario renders a different report.
	cfg.Faults = fault.HandoffOutage.Plan()
	other, err := RunExperimentsContext(context.Background(), cfg, "X9")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fault.BackhaulBrownout.Plan()
	brown, err := RunExperimentsContext(context.Background(), cfg, "X9")
	if err != nil {
		t.Fatal(err)
	}
	if other[0].Lines[len(other[0].Lines)-3] == brown[0].Lines[len(brown[0].Lines)-3] {
		t.Fatal("distinct fault plans rendered an identical custom-plan row")
	}
}

// TestObsPathArmsFaults pins the facade wiring: a nil plan leaves the
// path config without an injection hook (the exact pre-fault struct); a
// non-nil plan attaches one.
func TestObsPathArmsFaults(t *testing.T) {
	cfg := QuickConfig()
	if pc := cfg.obsPath(radio.NR, true); pc.Inject != nil {
		t.Fatal("nil Faults must not attach an Inject hook")
	}
	cfg.Faults = fault.Outage("o", 0, 1)
	if pc := cfg.obsPath(radio.NR, true); pc.Inject == nil {
		t.Fatal("non-nil Faults must attach an Inject hook")
	}
}
