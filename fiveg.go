// Package fivegsim reproduces "Understanding Operational 5G: A First
// Measurement Study on Its Coverage, Performance and Energy Consumption"
// (SIGCOMM 2020) as a calibrated simulation study.
//
// The package exposes the paper's measurement campaign as a registry of
// experiments, one per table and figure of the evaluation. Each experiment
// drives the substrates in internal/ (radio, deployment, packet-level
// network simulation, real congestion-control implementations, application
// models and the RRC/DRX energy machine) and renders the same rows and
// series the paper reports:
//
//	res, err := fivegsim.RunContext(context.Background(), "F7", fivegsim.DefaultConfig())
//	fmt.Println(res.Report())
//
// Use Experiments to enumerate everything, or the cmd/fgbench binary to
// regenerate the full set.
package fivegsim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"fivegsim/internal/fault"
	"fivegsim/internal/netsim"
	"fivegsim/internal/obs"
	"fivegsim/internal/par"
	"fivegsim/internal/radio"
)

// Config parametrizes an experiment run.
type Config struct {
	// Seed keys all randomness; a fixed seed reproduces a run exactly.
	Seed int64
	// Quick trades statistical depth for speed (shorter flows, fewer
	// samples) while preserving every qualitative result. Benchmarks and
	// CI use Quick; the full campaign uses !Quick.
	Quick bool
	// Workers bounds the campaign engine's concurrency: a campaign
	// dispatches experiments — and the parallelized inner loops (survey shards,
	// campaign walks, probe sweeps, hand-off reps) shard their work —
	// across this many goroutines. 0 means GOMAXPROCS, 1 (the zero-config
	// default) is the serial path. Results are bit-identical for every
	// value: work is sharded deterministically and merged in index order
	// (see internal/par and DESIGN.md's determinism contract).
	Workers int

	// Obs, when non-nil, collects simulator telemetry for the run:
	// `des.*` scheduler counters, `netsim.*` per-hop packet/byte
	// counters and occupancy histograms, `cc.*` congestion-control
	// events and `energy.*` state residencies. Nil (the default) keeps
	// the simulator on its no-op fast path.
	Obs *obs.Registry
	// Trace, when non-nil, records spans (outages, fault windows,
	// population ticks) into a bounded ring exportable as a Chrome trace
	// (chrome://tracing / Perfetto).
	Trace *obs.Tracer

	// Faults, when non-nil, arms the deterministic fault-injection plan
	// on every end-to-end path an experiment builds (and, for the
	// campaign-walk experiments, carves the plan's failed cells out of
	// the coverage map). Use a fault.Scenario preset or build a plan by
	// hand; (Seed, Plan) determines every injected event, so reports
	// stay bit-identical for any Workers value. Nil (the default) is
	// the exact pre-fault fast path, like Obs.
	Faults *fault.Plan

	// Population overrides the UE population size of the
	// population-scale experiments (X12, X13 and X15): the number of UEs
	// placed on the campus, or for the sweep experiment the largest
	// sweep point. 0 (the default) keeps each experiment's built-in
	// Quick/full sizing; Validate rejects more than 1 000 000. The probe
	// experiments (T/F series) always run one UE regardless — they are
	// the paper's methodology.
	Population int

	// OnEvent, when non-nil, receives the campaign's event stream: an
	// EventStart as each experiment is claimed and an EventFinish (with
	// completed count and completed-work ETA) as each returns, both in
	// completion order; an EventResult per experiment in paper order,
	// as the paper-order frontier advances; and EventTick events from
	// experiments that expose inner granularity (the population runs
	// report scheduling ticks). A single RunContext sees only the ticks.
	// Calls are serialized (never concurrent) but may run on engine
	// worker goroutines; keep the callback cheap.
	OnEvent func(Event)
}

// EventKind classifies a campaign event.
type EventKind string

const (
	// EventStart fires when an experiment is claimed by a campaign
	// worker, before its first simulated event.
	EventStart EventKind = "experiment_start"
	// EventFinish fires when an experiment returns (crashed experiments
	// finish too, with Failed set).
	EventFinish EventKind = "experiment_finish"
	// EventTick fires from inside long-running experiments that expose
	// sub-experiment granularity (the population layer's per-tick
	// hook); Tick/Ticks carry the inner counters.
	EventTick EventKind = "tick"
	// EventResult delivers a completed experiment's Result in paper
	// order; Completed counts the results delivered so far.
	EventResult EventKind = "result"
)

// Event is one record of the campaign event stream. Completed/Total
// count experiments; Tick/Ticks count the inner work units of the named
// experiment when Kind is EventTick. Events are facts about completed
// work — consumers derive ETAs from them (obs.EstimateETA). The JSON
// form is the progress payload of fgserve's event stream.
type Event struct {
	Kind       EventKind `json:"kind"`
	Experiment string    `json:"experiment,omitempty"`
	Completed  int       `json:"completed"`
	Total      int       `json:"total"`
	Tick       int       `json:"tick,omitempty"`
	Ticks      int       `json:"ticks,omitempty"`
	// Failed marks a finish event whose Result carried an error.
	Failed bool `json:"failed,omitempty"`
	// Elapsed is wall time since the campaign started; ETA the
	// completed-work extrapolation (0 until the first finish).
	Elapsed time.Duration `json:"elapsed_ns"`
	ETA     time.Duration `json:"eta_ns,omitempty"`
	// Result is the completed experiment of an EventResult.
	Result *Result `json:"-"`
}

// obsPath returns the calibrated path config for a technology/time of
// day with this run's telemetry and fault plan attached. It is the one
// place an experiment gets a netsim.PathConfig; callers adjust the
// returned copy (seed, buffers, delays) but never build one elsewhere.
func (cfg Config) obsPath(tech radio.Tech, daytime bool) netsim.PathConfig {
	p := netsim.DefaultPath(tech, daytime)
	p.Obs = cfg.Obs
	p.Trace = cfg.Trace
	if cfg.Faults != nil {
		p.Inject = fault.Hook(cfg.Faults)
	}
	return p
}

// sweep runs fn for the points 0..n-1 of an experiment's inner sweep
// across cfg.Workers (par.Map) and returns the results in index order.
// Each point gets a copy of cfg; with telemetry on, the copy's Obs is the
// point's own registry, and the registries are merged into cfg.Obs in
// index order once every point is done, so the merged metrics do not
// depend on Workers.
func sweep[T any](cfg Config, n int, fn func(c Config, i int) T) []T {
	regs := make([]*obs.Registry, n)
	out := par.Map(cfg.Workers, n, func(i int) T {
		c := cfg
		if cfg.Obs != nil {
			c.Obs = obs.NewRegistry()
			regs[i] = c.Obs
		}
		return fn(c, i)
	})
	for _, reg := range regs {
		cfg.Obs.Merge(reg)
	}
	return out
}

// DefaultConfig returns the full-fidelity configuration with the
// canonical seed.
func DefaultConfig() Config { return Config{Seed: 42} }

// QuickConfig returns the reduced-duration configuration.
func QuickConfig() Config { return Config{Seed: 42, Quick: true} }

// maxPopulation caps Config.Population: ten times the largest
// population any test or bench builds. A population's tick arena grows
// linearly with it (≈ 100 B per UE), so an unbounded override would let
// one spec ask for an arena no process can hold.
const maxPopulation = 1_000_000

// Validate checks the config at the API boundary and returns a typed
// *InvalidConfigError — matchable with errors.Is(err, ErrInvalidConfig)
// — on the first problem found: a negative worker count, a population
// override outside [0, 1 000 000], or a fault plan that fails
// fault.Plan.Validate (the underlying fault.ErrInvalidPlan stays on the
// error chain). Every Run* entry point calls Validate, and so does the
// fgserve admission path, so a bad spec fails fast with the same error
// shape everywhere.
func (cfg Config) Validate() error {
	if cfg.Workers < 0 {
		return &InvalidConfigError{Field: "Workers",
			Reason: fmt.Sprintf("negative worker count %d (0 = all cores, 1 = serial)", cfg.Workers)}
	}
	if cfg.Population < 0 {
		return &InvalidConfigError{Field: "Population",
			Reason: fmt.Sprintf("negative population override %d", cfg.Population)}
	}
	if cfg.Population > maxPopulation {
		return &InvalidConfigError{Field: "Population",
			Reason: fmt.Sprintf("population override %d exceeds %d", cfg.Population, maxPopulation)}
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return &InvalidConfigError{Field: "Faults", Reason: "invalid fault plan", Cause: err}
		}
	}
	return nil
}

// Result is the outcome of one experiment.
type Result struct {
	// ID and Title are the ones the experiment was registered with.
	ID    string
	Title string
	// Lines is the formatted table/series, one row per line, with the
	// paper's reference values alongside the measured ones.
	Lines []string
	// Values holds the headline metrics by name for programmatic checks.
	Values map[string]float64
	// Manifest records the run's provenance: seed, config, version,
	// wall/sim time, events executed and — when Config.Obs was set — the
	// full metric snapshot.
	Manifest obs.RunManifest
	// Err is non-nil when the experiment crashed instead of completing
	// (an *ExperimentPanicError); the campaign carries on and reports
	// the crash here rather than dying. Lines and Values are empty for
	// an errored result.
	Err error
}

// Report renders the result as text.
func (r Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Err != nil {
		fmt.Fprintf(&b, "  FAILED: %v\n", r.Err)
	}
	for _, l := range r.Lines {
		b.WriteString("  " + l + "\n")
	}
	return b.String()
}

// Typed errors of the public API, matchable with errors.Is/As.
var (
	// ErrUnknownExperiment is wrapped by every unknown-id failure of
	// RunContext/RunExperimentsContext; errors.As against *UnknownExperimentError
	// recovers the offending id.
	ErrUnknownExperiment = errors.New("fivegsim: unknown experiment")
	// ErrExperimentPanic is wrapped by Result.Err when a registered Run
	// panicked; errors.As against *ExperimentPanicError recovers the
	// panic value and stack.
	ErrExperimentPanic = errors.New("fivegsim: experiment panicked")
	// ErrInvalidConfig is wrapped by every Config.Validate failure;
	// errors.As against *InvalidConfigError recovers the offending
	// field.
	ErrInvalidConfig = errors.New("fivegsim: invalid config")
)

// InvalidConfigError reports a Config field that fails validation.
// Cause, when non-nil, is the underlying error (a fault-plan failure
// keeps fault.ErrInvalidPlan matchable through the chain).
type InvalidConfigError struct {
	Field  string
	Reason string
	Cause  error
}

func (e *InvalidConfigError) Error() string {
	s := fmt.Sprintf("fivegsim: invalid config: %s: %s", e.Field, e.Reason)
	if e.Cause != nil {
		s += ": " + e.Cause.Error()
	}
	return s
}

// Is matches ErrInvalidConfig.
func (e *InvalidConfigError) Is(target error) bool { return target == ErrInvalidConfig }

// Unwrap exposes the underlying cause (nil for field-only failures).
func (e *InvalidConfigError) Unwrap() error { return e.Cause }

// UnknownExperimentError reports a request for an id the registry does
// not hold.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return fmt.Sprintf("fivegsim: unknown experiment %q", e.ID)
}

// Is matches ErrUnknownExperiment.
func (e *UnknownExperimentError) Is(target error) bool { return target == ErrUnknownExperiment }

// ExperimentPanicError is the recovered crash of one experiment,
// converted into an error result so one bad run cannot kill a whole
// campaign.
type ExperimentPanicError struct {
	ID    string
	Value interface{} // the recovered panic value
	Stack []byte      // the crashing goroutine's stack
}

func (e *ExperimentPanicError) Error() string {
	return fmt.Sprintf("fivegsim: experiment %s panicked: %v", e.ID, e.Value)
}

// Is matches ErrExperimentPanic.
func (e *ExperimentPanicError) Is(target error) bool { return target == ErrExperimentPanic }

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) Result
}

var registry []Experiment

func register(id, title string, run func(cfg Config) Result) {
	// Every registered run is wrapped so its Result carries the
	// registered ID and title and a RunManifest regardless of which
	// entry point invoked it, and so a panicking experiment yields an
	// error result (Result.Err) instead of tearing down the campaign.
	wrapped := func(cfg Config) (res Result) {
		started := time.Now()
		defer func() {
			if r := recover(); r != nil {
				res = Result{Err: &ExperimentPanicError{ID: id, Value: r, Stack: debug.Stack()}}
			}
			res.ID, res.Title = id, title
			res.Manifest = obs.NewManifest(id, title, cfg.Seed, cfg.Quick, started, time.Since(started), cfg.Obs)
		}()
		return run(cfg)
	}
	registry = append(registry, Experiment{ID: id, Title: title, Run: wrapped})
}

// Experiments lists every registered experiment in paper order.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts T1..T4, then F2..F23, then the X extensions, by the
// digits that follow the letter. Malformed IDs (empty or
// single-character) sort after everything well-formed. The registry sort
// calls it in every comparison, so it parses the digits itself.
func orderKey(id string) int {
	if len(id) < 2 {
		return 1 << 30
	}
	n := 0
	for i := 1; i < len(id) && '0' <= id[i] && id[i] <= '9'; i++ {
		n = 10*n + int(id[i]-'0')
	}
	switch id[0] {
	case 'T':
		return n
	case 'F':
		return 100 + n
	default:
		return 200 + n
	}
}

// ValidateExperiments checks every id against the registry and returns
// a typed *UnknownExperimentError — matchable with errors.Is(err,
// ErrUnknownExperiment) — for the first id the registry does not hold.
// It is the same admission check every Run* entry point performs;
// services (cmd/fgserve) call it at the boundary so a bad spec fails
// before it is queued.
func ValidateExperiments(ids ...string) error {
	known := make(map[string]bool, len(registry))
	for _, e := range registry {
		known[e.ID] = true
	}
	for _, id := range ids {
		if !known[id] {
			return &UnknownExperimentError{ID: id}
		}
	}
	return nil
}

// RunContext is the single-experiment entry point: a context
// canceled before the experiment starts returns ctx.Err() (wrapped, so
// errors.Is matches); an experiment already running is not interrupted.
// cfg.OnEvent reaches the experiment as is, so it sees only EventTick.
// When cfg.Obs is set the experiment runs against a fresh registry, so
// its Manifest snapshot covers that run alone, and the registry is
// merged into cfg.Obs when the run returns.
// An unknown id is an *UnknownExperimentError; a config that fails
// Config.Validate is an *InvalidConfigError.
func RunContext(ctx context.Context, id string, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("fivegsim: run canceled: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	for _, e := range registry {
		if e.ID == id {
			run := cfg
			if cfg.Obs != nil {
				run.Obs = obs.NewRegistry()
			}
			res := e.Run(run)
			cfg.Obs.Merge(run.Obs)
			return res, nil
		}
	}
	return Result{}, &UnknownExperimentError{ID: id}
}

// RunExperimentsContext is the campaign entry point: it
// executes the named experiments — all of them when ids is empty —
// across up to cfg.Workers goroutines and returns the results in paper
// order regardless of scheduling; the returned slice, each Result's
// Lines and Values, and the merged cfg.Obs instrument totals are
// identical for every worker count. A config that fails Config.Validate
// returns a typed *InvalidConfigError before anything runs.
//
// When cfg.Obs is set, each experiment runs against its own
// sub-registry (so its Manifest snapshot covers that run alone) and the
// sub-registries are merged into cfg.Obs in paper order as the
// paper-order frontier advances — cfg.Obs is live during the campaign
// (fgserve serves it as /metrics), not only after it. cfg.OnEvent
// receives the campaign's event stream. An unknown id is an
// *UnknownExperimentError.
//
// Cancellation is checked between experiments (the internal/par shard
// boundary): after ctx is canceled no new experiment starts, in-flight
// experiments finish, and the call returns a wrapped ctx.Err() — match
// it with errors.Is(err, context.Canceled) — discarding the partial
// results (results already streamed as EventResult, and their metrics
// already merged into cfg.Obs, stand).
func RunExperimentsContext(ctx context.Context, cfg Config, ids ...string) ([]Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	exps := Experiments()
	if len(ids) > 0 {
		byID := make(map[string]Experiment, len(exps))
		for _, e := range exps {
			byID[e.ID] = e
		}
		picked := make([]Experiment, 0, len(ids))
		for _, id := range ids {
			e, ok := byID[id]
			if !ok {
				return nil, &UnknownExperimentError{ID: id}
			}
			picked = append(picked, e)
		}
		sort.SliceStable(picked, func(i, j int) bool { return orderKey(picked[i].ID) < orderKey(picked[j].ID) })
		exps = picked
	}
	type runOut struct {
		res      Result
		reg      *obs.Registry
		finished bool
	}
	outs := make([]runOut, len(exps))
	// mu serializes every OnEvent call (tick events from inside
	// experiments included) and guards outs and the counters below.
	// Completed results — and their sub-registries, merged into cfg.Obs —
	// leave from the paper-order frontier, so results arrive in order no
	// matter which worker finishes first and a live /metrics endpoint
	// watching cfg.Obs fills in as the campaign runs. Frontier merging
	// in paper order produces the same totals as an end-of-campaign
	// merge would.
	var mu sync.Mutex
	next, completed := 0, 0
	start := time.Now()
	emit := func(ev Event) {
		if cfg.OnEvent != nil {
			ev.Total = len(exps)
			cfg.OnEvent(ev)
		}
	}
	err := par.DoCtx(ctx, cfg.Workers, par.ShardSize(len(exps), 1), func(r par.Range) {
		i := r.Lo
		c := cfg
		if cfg.Obs != nil {
			c.Obs = obs.NewRegistry()
		}
		if cfg.OnEvent != nil {
			c.OnEvent = func(ev Event) {
				mu.Lock()
				cfg.OnEvent(ev)
				mu.Unlock()
			}
		}
		mu.Lock()
		emit(Event{Kind: EventStart, Experiment: exps[i].ID, Completed: completed, Elapsed: time.Since(start)})
		mu.Unlock()
		res := exps[i].Run(c)
		mu.Lock()
		defer mu.Unlock()
		outs[i] = runOut{res: res, reg: c.Obs, finished: true}
		completed++
		elapsed := time.Since(start)
		emit(Event{Kind: EventFinish, Experiment: exps[i].ID, Completed: completed, Failed: res.Err != nil,
			Elapsed: elapsed, ETA: obs.EstimateETA(elapsed, completed, len(exps))})
		for next < len(outs) && outs[next].finished {
			o := &outs[next]
			if o.reg != nil {
				cfg.Obs.Merge(o.reg)
			}
			emit(Event{Kind: EventResult, Experiment: exps[next].ID, Completed: next + 1, Result: &o.res})
			next++
		}
	})
	if err != nil {
		return nil, fmt.Errorf("fivegsim: campaign canceled: %w", err)
	}
	results := make([]Result, len(outs))
	for i, o := range outs {
		results[i] = o.res
	}
	return results, nil
}

// line is a small fmt.Sprintf helper used by the experiment files.
func line(format string, args ...interface{}) string { return fmt.Sprintf(format, args...) }
