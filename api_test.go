package fivegsim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"fivegsim/internal/obs"
)

// tempExperiment registers an experiment for the duration of one test
// and removes it on cleanup. IDs use the Z prefix so the temporaries
// sort after every real experiment and never collide with one.
func tempExperiment(t *testing.T, id string, run func(cfg Config) Result) {
	t.Helper()
	register(id, "test experiment "+id, run)
	t.Cleanup(func() { registry = registry[:len(registry)-1] })
}

func TestOrderKey(t *testing.T) {
	cases := []struct {
		id  string
		key int
	}{
		{"T1", 1},
		{"T4", 4},
		{"F2", 102},
		{"F23", 123},
		{"X1", 201},
		{"X11", 211},
		{"Z9", 209},
		{"", 1 << 30},
		{"T", 1 << 30},
	}
	for _, tc := range cases {
		if got := orderKey(tc.id); got != tc.key {
			t.Errorf("orderKey(%q) = %d, want %d", tc.id, got, tc.key)
		}
	}
}

func TestUnknownExperimentTyped(t *testing.T) {
	for _, call := range []func() error{
		func() error { _, err := RunContext(context.Background(), "NOPE", QuickConfig()); return err },
		func() error {
			_, err := RunExperimentsContext(context.Background(), QuickConfig(), "T1", "NOPE")
			return err
		},
	} {
		err := call()
		if !errors.Is(err, ErrUnknownExperiment) {
			t.Fatalf("error %v does not match ErrUnknownExperiment", err)
		}
		var ue *UnknownExperimentError
		if !errors.As(err, &ue) || ue.ID != "NOPE" {
			t.Fatalf("error %v does not carry the offending id", err)
		}
	}
}

// TestPanicRecovery: a crashing experiment becomes an error result — the
// campaign survives, the crash is typed and carries the panic value.
func TestPanicRecovery(t *testing.T) {
	tempExperiment(t, "Z98", func(cfg Config) Result {
		panic("synthetic crash")
	})
	tempExperiment(t, "Z99", func(cfg Config) Result {
		return Result{ID: "Z99", Title: "ok", Lines: []string{"fine"}}
	})
	results, err := RunExperimentsContext(context.Background(), QuickConfig(), "Z98", "Z99")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("campaign returned %d results, want 2", len(results))
	}
	crashed := results[0]
	if crashed.ID != "Z98" || crashed.Err == nil {
		t.Fatalf("crashed result = %+v", crashed)
	}
	if !errors.Is(crashed.Err, ErrExperimentPanic) {
		t.Fatalf("crash error %v does not match ErrExperimentPanic", crashed.Err)
	}
	var pe *ExperimentPanicError
	if !errors.As(crashed.Err, &pe) || pe.ID != "Z98" || pe.Value != "synthetic crash" || len(pe.Stack) == 0 {
		t.Fatalf("panic error payload incomplete: %+v", pe)
	}
	if results[1].Err != nil || len(results[1].Lines) != 1 {
		t.Fatalf("experiment after the crash was damaged: %+v", results[1])
	}
	if crashed.Manifest.ExperimentID != "Z98" {
		t.Fatalf("crashed result lost its manifest: %+v", crashed.Manifest)
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, "T1", QuickConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext under a canceled context returned %v", err)
	}
	if _, err := RunExperimentsContext(ctx, QuickConfig(), "T1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunExperimentsContext under a canceled context returned %v", err)
	}
}

// TestCancellationBetweenExperiments: canceling mid-campaign stops the
// engine within one experiment boundary — the experiment in flight
// finishes, nothing later starts, and the typed context error surfaces.
func TestRunContextManifestCoversItsOwnRun(t *testing.T) {
	tempExperiment(t, "Z97", func(cfg Config) Result {
		cfg.Obs.Counter("test.runs").Inc()
		return Result{ID: "Z97"}
	})
	cfg := QuickConfig()
	cfg.Obs = obs.NewRegistry()
	for run := 1; run <= 2; run++ {
		res, err := RunContext(context.Background(), "Z97", cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := -1.0
		for _, m := range res.Manifest.Metrics {
			if m.Name == "test.runs" {
				got = m.Value
			}
		}
		if got != 1 {
			t.Fatalf("run %d: manifest reads test.runs = %g, want 1 (this run alone)", run, got)
		}
	}
	if n := cfg.Obs.Counter("test.runs").Value(); n != 2 {
		t.Fatalf("caller's registry reads test.runs = %d after two runs, want 2", n)
	}
}

func TestCancellationBetweenExperiments(t *testing.T) {
	var ran int32
	for _, id := range []string{"Z90", "Z91", "Z92", "Z93"} {
		id := id
		tempExperiment(t, id, func(cfg Config) Result {
			atomic.AddInt32(&ran, 1)
			return Result{ID: id, Title: id}
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := QuickConfig()
	cfg.Workers = 1
	var streamed []string
	cfg.OnEvent = func(ev Event) {
		if ev.Kind == EventResult {
			streamed = append(streamed, ev.Result.ID)
			cancel() // cancel as soon as the first result lands
		}
	}
	_, err := RunExperimentsContext(ctx, cfg, "Z90", "Z91", "Z92", "Z93")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign returned %v", err)
	}
	if n := atomic.LoadInt32(&ran); n != 1 {
		t.Fatalf("%d experiments ran after cancellation at the first boundary", n)
	}
	if len(streamed) != 1 || streamed[0] != "Z90" {
		t.Fatalf("streamed results %v, want [Z90]", streamed)
	}
}

// TestOnResultPaperOrder: results stream in paper order even when later
// experiments finish first on other workers.
func TestOnResultPaperOrder(t *testing.T) {
	// Z93 is slowest but sorts first; Z95 is fastest but sorts last.
	delays := map[string]time.Duration{"Z93": 60 * time.Millisecond, "Z94": 30 * time.Millisecond, "Z95": 0}
	for id, d := range delays {
		id, d := id, d
		tempExperiment(t, id, func(cfg Config) Result {
			time.Sleep(d)
			return Result{ID: id, Title: id}
		})
	}
	cfg := QuickConfig()
	cfg.Workers = 3
	var streamed []string
	cfg.OnEvent = func(ev Event) {
		if ev.Kind == EventResult {
			streamed = append(streamed, ev.Result.ID)
		}
	}
	results, err := RunExperimentsContext(context.Background(), cfg, "Z95", "Z93", "Z94")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Z93", "Z94", "Z95"}
	for i, id := range want {
		if results[i].ID != id {
			t.Fatalf("results out of paper order: %v", results)
		}
		if streamed[i] != id {
			t.Fatalf("result events out of paper order: %v", streamed)
		}
	}
}
