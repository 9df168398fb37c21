package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"fivegsim"
	"fivegsim/internal/obs"
)

// Schema identifiers of the service's response documents.
const (
	// StatusSchemaV1 versions the campaign status document.
	StatusSchemaV1 = "fgserve.status/v1"
	// EventSchemaV1 versions the stream event envelope.
	EventSchemaV1 = "fgserve.event/v1"
)

// Sentinel errors of the service API.
var (
	// ErrNotFound reports an unknown campaign id.
	ErrNotFound = errors.New("serve: no such campaign")
	// ErrQueueFull reports admission refused because the bounded queue
	// is at capacity; retry later.
	ErrQueueFull = errors.New("serve: campaign queue full")
	// ErrDraining reports admission refused because the service is
	// shutting down.
	ErrDraining = errors.New("serve: draining, not accepting campaigns")
)

// State is a campaign's lifecycle phase.
type State string

const (
	// StateQueued: admitted, no unit dispatched yet.
	StateQueued State = "queued"
	// StateRunning: at least one unit dispatched, more to come.
	StateRunning State = "running"
	// StateDone: every unit completed (failed experiments complete too —
	// Status.Failed counts them).
	StateDone State = "done"
	// StateCanceled: canceled via the API or a service drain; pending
	// units never run, in-flight units finish and are kept.
	StateCanceled State = "canceled"
)

func (st State) terminal() bool { return st == StateDone || st == StateCanceled }

// Status is the queryable snapshot of one campaign.
type Status struct {
	Schema      string    `json:"schema"`
	ID          string    `json:"id"`
	Name        string    `json:"name,omitempty"`
	State       State     `json:"state"`
	Spec        Spec      `json:"spec"`
	Units       int       `json:"units"`
	Completed   int       `json:"completed"`
	Failed      int       `json:"failed"`
	InFlight    []string  `json:"in_flight,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
	// Elapsed is wall time since the first unit was dispatched (0 while
	// queued); ETA the completed-work extrapolation (obs.EstimateETA).
	Elapsed time.Duration `json:"elapsed_ns"`
	ETA     time.Duration `json:"eta_ns,omitempty"`
	// Error is the terminal cause of a canceled campaign ("context
	// canceled" for an API cancel).
	Error string `json:"error,omitempty"`
}

// Event is one record of a campaign's replayable stream, in the order
// the service emits them: progress start/finish events in completion
// order, result events in unit order (the paper-order frontier), one
// terminal status event.
type Event struct {
	Schema   string `json:"schema"`
	Seq      int    `json:"seq"`
	Campaign string `json:"campaign"`
	// Kind is "progress", "result" or "status"; exactly one of the
	// corresponding payload fields is set.
	Kind     string           `json:"kind"`
	Seed     int64            `json:"seed,omitempty"`
	Progress *fivegsim.Event  `json:"progress,omitempty"`
	Result   *fivegsim.Result `json:"result,omitempty"`
	Status   *Status          `json:"status,omitempty"`
}

// Progress is the service-wide /progress document, built on request
// from the unit counts the service keeps (Service.Progress).
type Progress struct {
	Total     int      `json:"total"`
	Completed int      `json:"completed"`
	Failed    int      `json:"failed"`
	Running   []string `json:"running,omitempty"`
	// Ticks holds the inner tick counters of running experiments that
	// report them, keyed by experiment ID; with several units of one
	// experiment in flight, the one furthest along.
	Ticks   map[string]TickState `json:"ticks,omitempty"`
	Elapsed time.Duration        `json:"elapsed_ns"`
	ETA     time.Duration        `json:"eta_ns,omitempty"`
	Done    bool                 `json:"done"`
}

// TickState is the inner progress of one running unit: the latest
// fivegsim.EventTick it reported.
type TickState struct {
	Tick  int `json:"tick"`
	Ticks int `json:"ticks"`
}

// Options configures a Service.
type Options struct {
	// PoolWorkers sizes the shared worker pool — the service's total
	// unit-level concurrency across all campaigns. 0 means GOMAXPROCS.
	PoolWorkers int
	// MaxActive bounds admission: the number of campaigns that may be
	// queued or running at once. A submit beyond the bound fails with
	// ErrQueueFull. 0 means 8.
	MaxActive int
	// Registry backs /metrics: the service's own serve.* instruments
	// plus every unit's merged simulator telemetry. Nil creates a fresh
	// registry.
	Registry *obs.Registry
	// Tracer, when non-nil, is attached to every unit run and backs
	// /trace.
	Tracer *obs.Tracer
	// Pprof mounts net/http/pprof on the handler.
	Pprof bool
}

// Service is the long-running campaign service: a bounded admission
// queue, a shared worker pool that round-robins units across admitted
// campaigns (so N concurrent campaigns share the pool fairly), and a
// replayable event log per campaign. Create with New; attach to HTTP
// with Handler or Start.
type Service struct {
	opts   Options
	reg    *obs.Registry
	tracer *obs.Tracer
	start  time.Time // the /progress clock
	// run executes one unit; tests substitute a synthetic runner.
	run func(ctx context.Context, id string, cfg fivegsim.Config) (fivegsim.Result, error)

	mu        sync.Mutex
	cond      *sync.Cond // guards + signals all campaign/queue state below
	campaigns map[string]*campaign
	order     []string // admission order; the round-robin universe
	rr        int      // fair-share cursor into order
	idSeq     int
	draining  bool
	// Service-wide unit counts across every campaign, the totals
	// /progress reports: pending units of a canceled campaign, and
	// claimed units that never started, leave unitsTotal.
	unitsTotal  int
	unitsDone   int
	unitsFailed int
	wg          sync.WaitGroup

	mSubmitted *obs.Counter
	mCompleted *obs.Counter
	mCanceled  *obs.Counter
	mUnitsDone *obs.Counter
	mUnitsFail *obs.Counter
	mActive    *obs.Gauge
	mQueue     *obs.Gauge
}

// campaign is the service-side state of one admitted spec. Every field
// is guarded by Service.mu.
type campaign struct {
	id      string
	spec    Spec
	baseCfg fivegsim.Config
	ctx     context.Context
	cancel  context.CancelFunc
	cause   error // terminal cancel cause

	submitted time.Time
	started   time.Time
	finished  time.Time

	units   []Unit
	results []fivegsim.Result
	done    []bool
	// running maps each in-flight unit index to its latest tick.
	running   map[int]TickState
	next      int // next unit to dispatch
	emitNext  int // paper-order result-emission frontier
	completed int
	failed    int
	events    []Event
	state     State
}

// closedLocked reports whether the campaign will never append another
// event: terminal state and no unit still in flight.
func (c *campaign) closedLocked() bool { return c.state.terminal() && len(c.running) == 0 }

// dispatchableLocked reports whether the campaign has a unit ready for
// a pool worker.
func (c *campaign) dispatchableLocked() bool {
	return (c.state == StateQueued || c.state == StateRunning) && c.next < len(c.units)
}

// New starts a Service: PoolWorkers goroutines begin waiting for units
// immediately. Stop it with Shutdown (Start wires that to context
// cancellation).
func New(opts Options) *Service {
	if opts.PoolWorkers <= 0 {
		opts.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxActive <= 0 {
		opts.MaxActive = 8
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	s := &Service{
		opts:      opts,
		reg:       opts.Registry,
		tracer:    opts.Tracer,
		start:     time.Now(),
		run:       fivegsim.RunContext,
		campaigns: map[string]*campaign{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.mSubmitted = s.reg.Counter("serve.campaigns_submitted")
	s.mCompleted = s.reg.Counter("serve.campaigns_completed")
	s.mCanceled = s.reg.Counter("serve.campaigns_canceled")
	s.mUnitsDone = s.reg.Counter("serve.units_completed")
	s.mUnitsFail = s.reg.Counter("serve.units_failed")
	s.mActive = s.reg.Gauge("serve.campaigns_active")
	s.mQueue = s.reg.Gauge("serve.queue_depth")
	for i := 0; i < opts.PoolWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates and admits a campaign spec, returning its initial
// status. Validation failures wrap ErrInvalidSpec; a full queue is
// ErrQueueFull; a draining service is ErrDraining.
func (s *Service) Submit(spec Spec) (Status, error) {
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	baseCfg, err := spec.Config()
	if err != nil {
		return Status{}, err // unreachable after Validate; belt and braces
	}
	units := spec.Units()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Status{}, ErrDraining
	}
	active := 0
	for _, id := range s.order {
		if !s.campaigns[id].state.terminal() {
			active++
		}
	}
	if active >= s.opts.MaxActive {
		return Status{}, fmt.Errorf("%w: %d campaigns active (max %d)", ErrQueueFull, active, s.opts.MaxActive)
	}
	s.idSeq++
	ctx, cancel := context.WithCancel(context.Background())
	c := &campaign{
		id:        fmt.Sprintf("c%04d", s.idSeq),
		spec:      spec,
		baseCfg:   baseCfg,
		ctx:       ctx,
		cancel:    cancel,
		submitted: time.Now(),
		units:     units,
		results:   make([]fivegsim.Result, len(units)),
		done:      make([]bool, len(units)),
		running:   map[int]TickState{},
		state:     StateQueued,
	}
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.mSubmitted.Inc()
	s.mActive.Add(1)
	s.mQueue.Add(int64(len(units)))
	s.unitsTotal += len(units)
	s.cond.Broadcast()
	return s.statusLocked(c), nil
}

// Status returns the current snapshot of one campaign.
func (s *Service) Status(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return s.statusLocked(c), nil
}

// List returns every campaign's status in admission order.
func (s *Service) List() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.campaigns[id]))
	}
	return out
}

// Cancel cancels a campaign: its context is canceled (errors.Is
// context.Canceled), pending units never start, in-flight units finish
// and keep their results. Canceling a terminal campaign is an idempotent
// no-op returning the terminal status.
func (s *Service) Cancel(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	s.cancelLocked(c, context.Canceled)
	return s.statusLocked(c), nil
}

func (s *Service) cancelLocked(c *campaign, cause error) {
	if c.state.terminal() {
		return
	}
	c.cancel()
	c.state = StateCanceled
	c.cause = cause
	c.finished = time.Now()
	s.mCanceled.Inc()
	s.mActive.Add(-1)
	pending := len(c.units) - c.next
	s.mQueue.Add(-int64(pending))
	s.unitsTotal -= pending
	st := s.statusLocked(c)
	s.appendEventLocked(c, Event{Kind: "status", Status: &st})
	s.cond.Broadcast()
}

// Stream replays the campaign's event log from the beginning and then
// tails it, invoking fn for every event in order, until the campaign
// closes (fn then saw the complete history and Stream returns nil), fn
// returns an error (returned as-is), or ctx is canceled (ctx.Err()).
// Late subscribers see exactly what live ones saw — the log is
// append-only and replayable.
func (s *Service) Stream(ctx context.Context, id string, fn func(Event) error) error {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	// A canceled stream context must wake the cond wait below.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	sent := 0
	for {
		s.mu.Lock()
		for sent == len(c.events) && !c.closedLocked() && ctx.Err() == nil {
			s.cond.Wait()
		}
		batch := c.events[sent:len(c.events):len(c.events)]
		closed := c.closedLocked() && sent+len(batch) == len(c.events)
		s.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, ev := range batch {
			if err := fn(ev); err != nil {
				return err
			}
			sent++
		}
		if closed {
			return nil
		}
	}
}

// Shutdown drains the service: admission closes, every non-terminal
// campaign is canceled, and the worker pool is waited for (in-flight
// units finish — the library cannot interrupt a running experiment)
// until ctx expires, which bounds the drain.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for _, id := range s.order {
		s.cancelLocked(s.campaigns[id], context.Canceled)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain timed out with units in flight: %w", ctx.Err())
	}
}

// worker is one pool goroutine: claim the next unit fairly, run it,
// repeat until the service drains.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var c *campaign
		ui := -1
		for {
			if s.draining {
				s.mu.Unlock()
				return
			}
			c, ui = s.pickLocked()
			if c != nil {
				break
			}
			s.cond.Wait()
		}
		s.mu.Unlock()
		s.runUnit(c, ui)
	}
}

// pickLocked claims the next unit under the fair-share discipline:
// round-robin across admitted campaigns in admission order, skipping
// campaigns with nothing to dispatch. One unit per turn means a
// 40-unit campaign and a 2-unit campaign admitted together alternate
// units instead of queueing head-to-tail.
func (s *Service) pickLocked() (*campaign, int) {
	n := len(s.order)
	for k := 0; k < n; k++ {
		idx := (s.rr + k) % n
		c := s.campaigns[s.order[idx]]
		if !c.dispatchableLocked() {
			continue
		}
		s.rr = (idx + 1) % n
		ui := c.next
		c.next++
		c.running[ui] = TickState{}
		if c.state == StateQueued {
			c.state = StateRunning
			c.started = time.Now()
		}
		s.mQueue.Add(-1)
		s.appendEventLocked(c, Event{Kind: "progress", Seed: c.units[ui].Seed, Progress: &fivegsim.Event{
			Kind: fivegsim.EventStart, Experiment: c.units[ui].Experiment,
			Completed: c.completed, Total: len(c.units), Elapsed: time.Since(c.started),
		}})
		return c, ui
	}
	return nil, -1
}

// runUnit executes one claimed unit outside the service lock and folds
// its outcome back in: telemetry merged into the service registry,
// result recorded, the paper-order frontier advanced, progress and
// status events appended.
func (s *Service) runUnit(c *campaign, ui int) {
	u := c.units[ui]
	cfg := c.baseCfg
	cfg.Seed = u.Seed
	cfg.Trace = s.tracer
	// RunContext runs the unit against a registry of its own, so its
	// manifest covers that run alone, and merges it into the service
	// registry on return, which keeps /metrics live mid-campaign.
	cfg.Obs = s.reg
	// The unit's inner ticks (population runs) feed /progress.
	cfg.OnEvent = func(ev fivegsim.Event) {
		if ev.Kind == fivegsim.EventTick {
			s.mu.Lock()
			c.running[ui] = TickState{Tick: ev.Tick, Ticks: ev.Ticks}
			s.mu.Unlock()
		}
	}
	res, err := s.run(c.ctx, u.Experiment, cfg)

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(c.running, ui)
	if err != nil {
		// The campaign was canceled between claim and start; the unit
		// never ran and leaves the /progress total. The frontier stops
		// here — closedLocked drains the stream once the remaining
		// in-flight units land.
		s.unitsTotal--
		s.cond.Broadcast()
		return
	}
	c.results[ui] = res
	c.done[ui] = true
	c.completed++
	s.unitsDone++
	s.mUnitsDone.Inc()
	if res.Err != nil {
		c.failed++
		s.unitsFailed++
		s.mUnitsFail.Inc()
	}
	elapsed := time.Since(c.started)
	s.appendEventLocked(c, Event{Kind: "progress", Seed: u.Seed, Progress: &fivegsim.Event{
		Kind: fivegsim.EventFinish, Experiment: u.Experiment,
		Completed: c.completed, Total: len(c.units), Failed: res.Err != nil,
		Elapsed: elapsed, ETA: obs.EstimateETA(elapsed, c.completed, len(c.units)),
	}})
	// Advance the unit-order frontier: results stream in seed-ladder ×
	// paper order no matter which worker finished first.
	for c.emitNext < len(c.units) && c.done[c.emitNext] {
		r := c.results[c.emitNext]
		s.appendEventLocked(c, Event{Kind: "result", Seed: c.units[c.emitNext].Seed, Result: &r})
		c.emitNext++
	}
	if c.completed == len(c.units) && c.state == StateRunning {
		c.state = StateDone
		c.finished = time.Now()
		s.mCompleted.Inc()
		s.mActive.Add(-1)
		st := s.statusLocked(c)
		s.appendEventLocked(c, Event{Kind: "status", Status: &st})
	}
	s.cond.Broadcast()
}

// Progress returns the service-wide progress document that /progress
// serves: the unit counts across every campaign, the experiments of the
// units in flight with their latest ticks, and a completed-work ETA on
// the clock that started with the service.
func (s *Service) Progress() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := Progress{
		Total:     s.unitsTotal,
		Completed: s.unitsDone,
		Failed:    s.unitsFailed,
		Elapsed:   time.Since(s.start),
		Done:      s.unitsTotal > 0 && s.unitsDone >= s.unitsTotal,
	}
	for _, c := range s.campaigns {
		for ui, tk := range c.running {
			id := c.units[ui].Experiment
			p.Running = append(p.Running, id)
			if cur := p.Ticks[id]; tk.Tick > cur.Tick || tk.Tick == cur.Tick && tk.Ticks > cur.Ticks {
				if p.Ticks == nil {
					p.Ticks = map[string]TickState{}
				}
				p.Ticks[id] = tk
			}
		}
	}
	slices.Sort(p.Running)
	p.Running = slices.Compact(p.Running)
	if !p.Done {
		p.ETA = obs.EstimateETA(p.Elapsed, p.Completed, p.Total)
	}
	return p
}

func (s *Service) appendEventLocked(c *campaign, ev Event) {
	ev.Schema = EventSchemaV1
	ev.Seq = len(c.events)
	ev.Campaign = c.id
	c.events = append(c.events, ev)
}

func (s *Service) statusLocked(c *campaign) Status {
	st := Status{
		Schema:      StatusSchemaV1,
		ID:          c.id,
		Name:        c.spec.Name,
		State:       c.state,
		Spec:        c.spec,
		Units:       len(c.units),
		Completed:   c.completed,
		Failed:      c.failed,
		SubmittedAt: c.submitted,
		StartedAt:   c.started,
		FinishedAt:  c.finished,
	}
	for ui := range c.running {
		st.InFlight = append(st.InFlight, fmt.Sprintf("%s@%d", c.units[ui].Experiment, c.units[ui].Seed))
	}
	sort.Strings(st.InFlight)
	if !c.started.IsZero() {
		if c.finished.IsZero() {
			st.Elapsed = time.Since(c.started)
		} else {
			st.Elapsed = c.finished.Sub(c.started)
		}
	}
	if !c.state.terminal() {
		st.ETA = obs.EstimateETA(st.Elapsed, c.completed, len(c.units))
	}
	if c.cause != nil {
		st.Error = c.cause.Error()
	}
	return st
}

// report renders the campaign's completed results in unit order — for
// a finished campaign, byte-identical to concatenating Result.Report()
// over a direct RunExperimentsContext run of the same spec.
func (s *Service) report(id string) (string, State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return "", "", ErrNotFound
	}
	var b []byte
	for ui := range c.units {
		if c.done[ui] {
			b = append(b, c.results[ui].Report()...)
		}
	}
	return string(b), c.state, nil
}
