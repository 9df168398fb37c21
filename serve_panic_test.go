package fivegsim_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"fivegsim"
	"fivegsim/internal/serve"
)

// TestServeContainsPanickingUnit runs a panicking experiment inside a
// real campaign service next to a healthy unit and a second tenant: the
// crash must come out as that unit's error result while everything
// else finishes.
func TestServeContainsPanickingUnit(t *testing.T) {
	fivegsim.TempExperiment(t, "Z96", func(cfg fivegsim.Config) fivegsim.Result {
		panic("synthetic crash in a served unit")
	})
	s := serve.New(serve.Options{PoolWorkers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	a, err := s.Submit(serve.Spec{Name: "tenant A", Experiments: []string{"Z96", "T1"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(serve.Spec{Name: "tenant B", Experiments: []string{"T4"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results := map[string]*fivegsim.Result{}
	for _, id := range []string{a.ID, b.ID} {
		err := s.Stream(ctx, id, func(ev serve.Event) error {
			if ev.Kind == "result" {
				results[id+"/"+ev.Result.ID] = ev.Result
			}
			return nil
		})
		if err != nil {
			t.Fatalf("stream %s: %v", id, err)
		}
	}

	crashed, ok := results[a.ID+"/Z96"]
	if !ok {
		t.Fatal("tenant A streamed no result for the panicking unit")
	}
	if !errors.Is(crashed.Err, fivegsim.ErrExperimentPanic) {
		t.Fatalf("panicking unit's result error = %v, want one matching ErrExperimentPanic", crashed.Err)
	}
	if r, ok := results[a.ID+"/T1"]; !ok || r.Err != nil || len(r.Lines) == 0 {
		t.Fatalf("tenant A's T1 result = %+v, want a clean report", r)
	}
	if st, err := s.Status(a.ID); err != nil || st.State != serve.StateDone || st.Failed != 1 || st.Completed != 2 {
		t.Fatalf("tenant A status = %+v (err %v), want done with 2 completed and 1 failed", st, err)
	}
	if st, err := s.Status(b.ID); err != nil || st.State != serve.StateDone || st.Failed != 0 || st.Completed != 1 {
		t.Fatalf("tenant B status = %+v (err %v), want done with its one unit clean", st, err)
	}
	if r, ok := results[b.ID+"/T4"]; !ok || r.Err != nil {
		t.Fatalf("tenant B's T4 result = %+v, want a clean report", r)
	}
}
