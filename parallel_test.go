package fivegsim

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"testing"

	"fivegsim/internal/obs"
)

// sameResults asserts byte-identical reports: every Line and Value of
// every experiment must match between the two runs.
func sameResults(t *testing.T, want, got []Result, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i].ID != got[i].ID {
			t.Fatalf("%s: result %d is %s, want %s (paper order lost)", label, i, got[i].ID, want[i].ID)
		}
		if !reflect.DeepEqual(want[i].Lines, got[i].Lines) {
			t.Fatalf("%s: %s Lines differ between worker counts:\nserial: %q\nparallel: %q",
				label, want[i].ID, want[i].Lines, got[i].Lines)
		}
		if !reflect.DeepEqual(want[i].Values, got[i].Values) {
			t.Fatalf("%s: %s Values differ between worker counts:\nserial: %v\nparallel: %v",
				label, want[i].ID, want[i].Values, got[i].Values)
		}
	}
}

// TestExperimentParallelEquivalence is the determinism-equivalence
// contract at the facade: the same experiments, seeds and Quick mode
// must render identical Lines and Values for Workers=1 and Workers=8.
// The subset spans every parallelized code path that fits a test budget:
// coverage survey shards (T1, T2), hand-off campaign walks (F5), wire
// probe sweeps (F13, F15), the buffer-estimation pair (T3) and the
// population tick shards (X12).
func TestExperimentParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed equivalence sweep is not short-mode work")
	}
	ids := []string{"T1", "T2", "F5", "F13", "F15", "T3", "X12"}
	for _, seed := range []int64{1, 42, 7} {
		cfg := Config{Seed: seed, Quick: true, Workers: 1}
		serial, err := RunExperimentsContext(context.Background(), cfg, ids...)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 8
		parallel, err := RunExperimentsContext(context.Background(), cfg, ids...)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, serial, parallel, fmt.Sprintf("seed %d", seed))
	}
}

// TestRunAllEquivalenceExhaustive is the acceptance check in full: every
// experiment, seeds {1, 42, 7}, Workers 1 vs 8, byte-identical reports.
// At ~2 minutes per quick campaign it only runs when explicitly requested:
//
//	FIVEGSIM_EXHAUSTIVE=1 go test -run RunAllEquivalence -timeout 30m
func TestRunAllEquivalenceExhaustive(t *testing.T) {
	if os.Getenv("FIVEGSIM_EXHAUSTIVE") == "" {
		t.Skip("set FIVEGSIM_EXHAUSTIVE=1 to run the full campaign equivalence sweep")
	}
	for _, seed := range []int64{1, 42, 7} {
		serial, _ := RunExperimentsContext(context.Background(), Config{Seed: seed, Quick: true, Workers: 1})
		parallel, _ := RunExperimentsContext(context.Background(), Config{Seed: seed, Quick: true, Workers: 8})
		sameResults(t, serial, parallel, "RunAll")
	}
}

// TestExperimentSeedSensitivity guards against a sharding bug that
// would silently decouple results from the seed (e.g. keying substreams
// by shard index alone).
func TestExperimentSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is not short-mode work")
	}
	a, err := RunExperimentsContext(context.Background(), Config{Seed: 1, Quick: true, Workers: 4}, "T1", "F5")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExperimentsContext(context.Background(), Config{Seed: 2, Quick: true, Workers: 4}, "T1", "F5")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if reflect.DeepEqual(a[i].Values, b[i].Values) {
			t.Fatalf("%s: seeds 1 and 2 produced identical values %v", a[i].ID, a[i].Values)
		}
	}
}

// TestRunAllParallelRace exercises the shared-state paths — per-run
// sub-registries merged into one cfg.Obs, a shared Tracer, concurrent
// experiment dispatch — under the race detector's eye. It stays cheap
// (near-instant experiments only) and deliberately does NOT skip in
// short mode: `go test -race -short ./...` must cover it.
func TestRunAllParallelRace(t *testing.T) {
	cfg := Config{Seed: 42, Quick: true, Workers: 8,
		Obs: obs.NewRegistry(), Trace: obs.NewTracer(1 << 12)}
	ids := []string{"F2", "F3", "F4", "F13", "F14", "F15", "F22", "F23"}
	results, err := RunExperimentsContext(context.Background(), cfg, ids...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ids) {
		t.Fatalf("got %d results, want %d", len(results), len(ids))
	}
	for i, res := range results {
		if res.ID != ids[i] {
			t.Fatalf("result %d is %s, want %s", i, res.ID, ids[i])
		}
	}
}

// TestRunExperimentsMergesObsInPaperOrder verifies the telemetry
// plumbing: each result's manifest snapshot covers its own run, and the
// campaign registry ends up with the merged totals.
func TestRunExperimentsMergesObsInPaperOrder(t *testing.T) {
	cfg := Config{Seed: 42, Quick: true, Workers: 4, Obs: obs.NewRegistry()}
	results, err := RunExperimentsContext(context.Background(), cfg, "F10", "F13")
	if err != nil {
		t.Fatal(err)
	}
	var perRun int64
	for _, res := range results {
		for _, m := range res.Manifest.Metrics {
			if m.Kind == "counter" {
				perRun += int64(m.Value)
			}
		}
	}
	var merged int64
	for _, m := range cfg.Obs.Snapshot() {
		if m.Kind == "counter" {
			merged += int64(m.Value)
		}
	}
	if merged == 0 {
		t.Fatal("campaign registry collected nothing")
	}
	if merged != perRun {
		t.Fatalf("merged counter total %d != sum of per-run totals %d", merged, perRun)
	}
}

// TestRunExperimentsUnknownID checks the subset API's error path.
func TestRunExperimentsUnknownID(t *testing.T) {
	if _, err := RunExperimentsContext(context.Background(), QuickConfig(), "F13", "Z9"); err == nil {
		t.Fatal("unknown experiment id must be an error")
	}
}
