package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The structured progress stream: the campaign engine (and the
// instrumented population layer underneath it) emits ProgressEvents as
// work starts, ticks and finishes, and a ProgressTracker folds the
// stream into a JSON-serializable snapshot the live /progress endpoint
// serves. Events are facts about completed work — consumers derive ETAs
// from them (EstimateETA), so a dropped or re-ordered consumer can
// always re-derive the campaign state from the latest events alone.

// ProgressKind classifies a progress event.
type ProgressKind string

const (
	// ProgressExperimentStart fires when an experiment is claimed by a
	// campaign worker, before its first simulated event.
	ProgressExperimentStart ProgressKind = "experiment_start"
	// ProgressExperimentFinish fires when an experiment returns (crashed
	// experiments finish too, with Failed set).
	ProgressExperimentFinish ProgressKind = "experiment_finish"
	// ProgressTick fires from inside long-running experiments that
	// expose sub-experiment granularity (the population layer's
	// per-tick hook); Tick/Ticks carry the inner counters.
	ProgressTick ProgressKind = "tick"
)

// ProgressEvent is one record of the campaign progress stream.
// Completed/Total count experiments; Tick/Ticks count the inner work
// units of the named experiment (population scheduling ticks, campaign
// reps) when Kind is ProgressTick.
type ProgressEvent struct {
	Kind       ProgressKind `json:"kind"`
	Experiment string       `json:"experiment,omitempty"`
	Completed  int          `json:"completed"`
	Total      int          `json:"total"`
	Tick       int          `json:"tick,omitempty"`
	Ticks      int          `json:"ticks,omitempty"`
	// Failed marks a finish event whose Result carried an error.
	Failed bool `json:"failed,omitempty"`
	// Elapsed is wall time since the campaign started; ETA the
	// completed-work extrapolation (0 until the first finish).
	Elapsed time.Duration `json:"elapsed_ns"`
	ETA     time.Duration `json:"eta_ns,omitempty"`
}

// EstimateETA extrapolates the remaining wall time from completed work:
// elapsed/completed × remaining. Returns 0 while nothing has completed
// (no basis) and 0 when everything has. The result is clamped to
// [0, math.MaxInt64]: a negative elapsed (clock skew, an event stamped
// before the tracker's start) or a float→Duration overflow must never
// surface as a negative countdown on the /progress endpoint.
func EstimateETA(elapsed time.Duration, completed, total int) time.Duration {
	if elapsed <= 0 || completed <= 0 || total <= completed {
		return 0
	}
	eta := float64(elapsed) / float64(completed) * float64(total-completed)
	if eta >= math.MaxInt64 {
		return math.MaxInt64
	}
	if eta < 0 {
		return 0
	}
	return time.Duration(eta)
}

// TickState is the inner progress of one running experiment.
type TickState struct {
	Tick  int `json:"tick"`
	Ticks int `json:"ticks"`
}

// ProgressSnapshot is the aggregate campaign state the /progress
// endpoint serves.
type ProgressSnapshot struct {
	Total     int      `json:"total"`
	Completed int      `json:"completed"`
	Failed    int      `json:"failed"`
	Running   []string `json:"running,omitempty"`
	// Ticks holds the inner tick counters of running experiments that
	// report them, keyed by experiment ID.
	Ticks   map[string]TickState `json:"ticks,omitempty"`
	Elapsed time.Duration        `json:"elapsed_ns"`
	ETA     time.Duration        `json:"eta_ns,omitempty"`
	Done    bool                 `json:"done"`
}

// ProgressTracker folds a progress-event stream into a snapshot. It is
// safe for concurrent use; a nil *ProgressTracker is a no-op observer.
type ProgressTracker struct {
	mu        sync.Mutex
	start     time.Time
	total     int
	completed int
	failed    int
	// running counts the in-flight runs of each experiment: two seeds of
	// one experiment may run at once, and the first to finish must not
	// drop the other.
	running map[string]int
	ticks   map[string]TickState
	eta     time.Duration
}

// NewProgressTracker returns a tracker whose Elapsed clock starts now.
func NewProgressTracker() *ProgressTracker {
	return &ProgressTracker{
		start:   time.Now(),
		running: map[string]int{},
		ticks:   map[string]TickState{},
	}
}

// Observe folds one event into the tracker. Nil-safe.
func (t *ProgressTracker) Observe(ev ProgressEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ev.Total > 0 {
		t.total = ev.Total
	}
	switch ev.Kind {
	case ProgressExperimentStart:
		t.running[ev.Experiment]++
	case ProgressExperimentFinish:
		t.release(ev.Experiment)
		if ev.Completed > t.completed {
			t.completed = ev.Completed
		} else {
			t.completed++
		}
		if ev.Failed {
			t.failed++
		}
		t.eta = ev.ETA
	case ProgressTick:
		t.ticks[ev.Experiment] = TickState{Tick: ev.Tick, Ticks: ev.Ticks}
	}
}

// release drops one in-flight run of experiment; its tick state goes
// with the last one.
func (t *ProgressTracker) release(experiment string) {
	if t.running[experiment] > 1 {
		t.running[experiment]--
		return
	}
	delete(t.running, experiment)
	delete(t.ticks, experiment)
}

// SetTotal replaces the total the snapshot measures completion against,
// for producers whose total changes between start and finish events: a
// service admitting a campaign, or dropping the pending units of a
// canceled one. Nil-safe.
func (t *ProgressTracker) SetTotal(total int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total = total
	t.mu.Unlock()
}

// Abandon drops one started run of experiment that will never finish
// (its campaign was canceled before the run began) without counting it
// completed. Nil-safe.
func (t *ProgressTracker) Abandon(experiment string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.release(experiment)
	t.mu.Unlock()
}

// Snapshot returns the current aggregate state. Nil-safe (zero value).
func (t *ProgressTracker) Snapshot() ProgressSnapshot {
	if t == nil {
		return ProgressSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := ProgressSnapshot{
		Total:     t.total,
		Completed: t.completed,
		Failed:    t.failed,
		Elapsed:   time.Since(t.start),
		Done:      t.total > 0 && t.completed >= t.total,
	}
	for id := range t.running {
		s.Running = append(s.Running, id)
	}
	sort.Strings(s.Running)
	if len(t.ticks) > 0 {
		s.Ticks = make(map[string]TickState, len(t.ticks))
		for id, st := range t.ticks {
			s.Ticks[id] = st
		}
	}
	if !s.Done {
		// Prefer a live extrapolation over the last event's ETA so the
		// endpoint keeps counting down between finishes.
		if eta := EstimateETA(s.Elapsed, s.Completed, s.Total); eta > 0 {
			s.ETA = eta
		} else {
			s.ETA = t.eta
		}
	}
	return s
}
