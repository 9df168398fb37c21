package obs

import (
	"testing"
	"time"
)

func TestEstimateETA(t *testing.T) {
	cases := []struct {
		elapsed          time.Duration
		completed, total int
		want             time.Duration
	}{
		{10 * time.Second, 2, 4, 10 * time.Second},
		{10 * time.Second, 1, 4, 30 * time.Second},
		{10 * time.Second, 0, 4, 0},      // nothing completed: no basis
		{10 * time.Second, 4, 4, 0},      // done: nothing remains
		{10 * time.Second, 5, 4, 0},      // over-complete: clamp to done
		{-5 * time.Second, 1, 4, 0},      // negative elapsed (clock skew): clamp to 0
		{-1, 1, 1 << 30, 0},              // tiny negative elapsed, huge remaining: still 0
		{0, 1, 4, 0},                     // zero elapsed: no basis yet
		{1 << 62, 1, 1 << 40, 1<<63 - 1}, // extrapolation overflows: saturate, never wrap negative
	}
	for _, tc := range cases {
		if got := EstimateETA(tc.elapsed, tc.completed, tc.total); got != tc.want {
			t.Errorf("EstimateETA(%v, %d, %d) = %v, want %v", tc.elapsed, tc.completed, tc.total, got, tc.want)
		}
	}
}

func TestProgressTrackerNilSafe(t *testing.T) {
	var tr *ProgressTracker
	tr.Observe(ProgressEvent{Kind: ProgressExperimentStart, Experiment: "X"})
	if s := tr.Snapshot(); s.Total != 0 || s.Done {
		t.Fatalf("nil tracker snapshot = %+v, want zero value", s)
	}
}

func TestProgressTrackerLifecycle(t *testing.T) {
	tr := NewProgressTracker()
	tr.Observe(ProgressEvent{Kind: ProgressExperimentStart, Experiment: "X13", Total: 2})
	tr.Observe(ProgressEvent{Kind: ProgressExperimentStart, Experiment: "X12", Total: 2})
	tr.Observe(ProgressEvent{Kind: ProgressTick, Experiment: "X13", Tick: 5, Ticks: 15, Total: 2})

	s := tr.Snapshot()
	if s.Total != 2 || s.Completed != 0 || s.Done {
		t.Fatalf("mid-run snapshot = %+v", s)
	}
	if len(s.Running) != 2 || s.Running[0] != "X12" || s.Running[1] != "X13" {
		t.Fatalf("running set %v, want sorted [X12 X13]", s.Running)
	}
	if st := s.Ticks["X13"]; st.Tick != 5 || st.Ticks != 15 {
		t.Fatalf("tick state %+v, want 5/15", st)
	}

	tr.Observe(ProgressEvent{Kind: ProgressExperimentFinish, Experiment: "X13",
		Completed: 1, Total: 2, ETA: 3 * time.Second})
	s = tr.Snapshot()
	if s.Completed != 1 || s.Failed != 0 || s.Done {
		t.Fatalf("after first finish: %+v", s)
	}
	if len(s.Running) != 1 || s.Running[0] != "X12" {
		t.Fatalf("running set %v after X13 finished", s.Running)
	}
	if _, ok := s.Ticks["X13"]; ok {
		t.Fatal("finished experiment still reports tick state")
	}
	if s.ETA <= 0 {
		t.Fatalf("mid-run snapshot lost the ETA: %+v", s)
	}

	tr.Observe(ProgressEvent{Kind: ProgressExperimentFinish, Experiment: "X12",
		Completed: 2, Total: 2, Failed: true})
	s = tr.Snapshot()
	if !s.Done || s.Completed != 2 || s.Failed != 1 {
		t.Fatalf("final snapshot = %+v, want done with 1 failure", s)
	}
	if s.ETA != 0 {
		t.Fatalf("done snapshot still reports ETA %v", s.ETA)
	}
	if len(s.Running) != 0 {
		t.Fatalf("done snapshot still reports running %v", s.Running)
	}
}

// TestProgressTrackerCountsFinishesWithoutCompleted: finish events that
// carry no cumulative Completed field (e.g. a hand-rolled producer)
// still advance the completed count one per finish.
func TestProgressTrackerCountsFinishesWithoutCompleted(t *testing.T) {
	tr := NewProgressTracker()
	for i := 0; i < 3; i++ {
		tr.Observe(ProgressEvent{Kind: ProgressExperimentFinish, Experiment: "Z", Total: 3})
	}
	s := tr.Snapshot()
	if s.Completed != 3 || !s.Done {
		t.Fatalf("snapshot = %+v, want 3/3 done", s)
	}
}

// TestProgressTrackerRunningRefCount: two runs of one experiment in
// flight at once (a seed ladder) keep it running until the second
// finishes; an abandoned run leaves the running set without counting as
// completed, and SetTotal replaces the total between events.
func TestProgressTrackerRunningRefCount(t *testing.T) {
	tr := NewProgressTracker()
	tr.Observe(ProgressEvent{Kind: ProgressExperimentStart, Experiment: "X12", Total: 3})
	tr.Observe(ProgressEvent{Kind: ProgressExperimentStart, Experiment: "X12", Total: 3})
	tr.Observe(ProgressEvent{Kind: ProgressExperimentStart, Experiment: "X13", Total: 3})
	tr.Observe(ProgressEvent{Kind: ProgressTick, Experiment: "X12", Tick: 1, Ticks: 4})
	tr.Observe(ProgressEvent{Kind: ProgressExperimentFinish, Experiment: "X12", Completed: 1, Total: 3})
	s := tr.Snapshot()
	if len(s.Running) != 2 || s.Running[0] != "X12" || s.Ticks["X12"].Ticks != 4 {
		t.Fatalf("one of two X12 runs finished: %+v, want X12 still running with its ticks", s)
	}
	tr.Abandon("X13")
	tr.SetTotal(2)
	tr.Observe(ProgressEvent{Kind: ProgressExperimentFinish, Experiment: "X12", Completed: 2, Total: 2})
	s = tr.Snapshot()
	if !s.Done || s.Completed != 2 || s.Total != 2 || len(s.Running) != 0 || len(s.Ticks) != 0 {
		t.Fatalf("final snapshot = %+v, want 2/2 done with nothing running", s)
	}
}
