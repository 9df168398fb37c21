package fivegsim

import (
	"context"
	"testing"

	"fivegsim/internal/fault"
	"fivegsim/internal/radio"
)

// TestFaultParallelEquivalence is the determinism-equivalence contract
// of the fault layer at the facade: with a scenario plan armed, the
// fault experiments must render identical Lines and Values for
// Workers=1 and Workers=8. X10 fans its scenario suite out over the
// engine; X11 fans out campaign walks under a coverage hole; both draw
// every injected event from seed-keyed substreams.
func TestFaultParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fault equivalence sweep is not short-mode work")
	}
	ids := []string{"X10", "X11"}
	cfg := Config{Seed: 42, Quick: true, Faults: fault.CellFailover.Plan()}
	cfg.Workers = 1
	serial, err := RunExperimentsContext(context.Background(), cfg, ids...)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := RunExperimentsContext(context.Background(), cfg, ids...)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, serial, parallel, "faulted workers 1 vs 8")

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
