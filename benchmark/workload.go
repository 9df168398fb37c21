package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"fivegsim"
	"fivegsim/internal/obs"
)

// poolSeeds are the experiment seeds the workloads draw their inputs
// from. testdata/digests.json holds the expected output of every unit at
// every pool seed, so each run checks each result it produces; -seed
// picks the order in which a run visits the pool.
var poolSeeds = []int64{42, 7, 1, 2, 3, 4, 5, 6}

// The experiment mix of each workload, in paper order. See README.md for
// why each was chosen.
var (
	tcpIDs     = []string{"F7", "F8"}
	udpIDs     = []string{"F9", "F10", "F11"}
	campusIDs  = []string{"T1", "T2", "F2", "F3", "F5", "F6", "X3", "X11", "X12", "X13", "X15"}
	serviceIDs = []string{"T4", "F14", "F15", "F18", "F19", "F20", "F21", "F23", "X4", "X5", "X6"}
)

// workloadNames lists the workloads in the order the combined mode runs them.
var workloadNames = []string{"tcp", "udp", "campus", "service"}

// A workload runs cycles: a cycle is the unit of work its end-to-end
// timings describe — one seed's experiment list for the batch
// workloads, one campaign for the service.
type workload interface {
	// start acquires what the workload needs before its first cycle.
	start() error
	// run runs cycles until about the deadline, at least one.
	run(ctx context.Context, p *phase, until time.Time)
	// finish checks what can only be checked once the run is over,
	// recording failures into p, and releases what start acquired.
	finish(ctx context.Context, p *phase)
}

// newWorkload builds the named workload with its inputs drawn from seed.
func newWorkload(name string, seed int64) (workload, error) {
	r := rand.New(rand.NewSource(seed))
	order := make([]int64, len(poolSeeds))
	for i, j := range r.Perm(len(poolSeeds)) {
		order[i] = poolSeeds[j]
	}
	switch name {
	case "tcp":
		return &batch{ids: tcpIDs, quick: true, workers: 1, seeds: order}, nil
	case "udp":
		return &batch{ids: udpIDs, quick: true, workers: 1, seeds: order}, nil
	case "campus":
		return &batch{ids: campusIDs, quick: false, workers: 2, seeds: order}, nil
	case "service":
		return &service{ids: serviceIDs, shared: order[:2], freshBase: 1<<40 + r.Int63n(1<<40)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// phase accumulates one measured stretch of a run. Workloads append to it
// from several goroutines, so every write goes through its methods.
type phase struct {
	traced bool
	// reg is the telemetry registry the phase's units report into; before
	// holds its counters at the start of the phase (the service's registry
	// outlives a phase).
	reg    *obs.Registry
	before []obs.Metric

	mu        sync.Mutex
	walls     []float64 // per cycle, seconds
	submits   []float64 // service: POST to 202, seconds
	firsts    []float64 // service: POST to first result, seconds
	units     []unitRun
	spans     []span
	attempted int
	failed    int
	problems  []string

	// Process-wide totals over the phase, filled in by measure.
	window, cpu     time.Duration
	alloc, mallocs  uint64
	gcs             uint32
	pause           time.Duration
	profile, allocs map[string]int64 // traced phases: self CPU ns and alloc bytes by layer
}

// unitRun is one completed (seed, experiment) unit.
type unitRun struct {
	id   string
	wall time.Duration
}

func newPhase(traced bool) *phase {
	p := &phase{traced: traced}
	if traced {
		p.reg = obs.NewRegistry()
	}
	return p
}

func (p *phase) cycle(wall time.Duration) {
	p.mu.Lock()
	p.walls = append(p.walls, wall.Seconds())
	p.mu.Unlock()
}

// attempt counts n units attempted.
func (p *phase) attempt(n int) {
	p.mu.Lock()
	p.attempted += n
	p.mu.Unlock()
}

// fail counts n failed units and keeps the first few reasons.
func (p *phase) fail(n int, format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed += n
	if len(p.problems) < 10 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

func (p *phase) unit(r fivegsim.Result) {
	p.mu.Lock()
	p.units = append(p.units, unitRun{id: r.ID, wall: r.Manifest.WallTime})
	p.mu.Unlock()
}

// check counts r as failed when it is not experiment id's result, it
// errored, or its digest is not want.
func (p *phase) check(r fivegsim.Result, id string, seed int64, want string) {
	switch got := digest(r); {
	case r.ID != id:
		p.fail(1, "%s@%d: got result for %s", id, seed, r.ID)
	case r.Err != nil:
		p.fail(1, "%s@%d: %v", id, seed, r.Err)
	case got != want:
		p.fail(1, "%s@%d: digest %.12s, want %.12s", id, seed, got, want)
	}
}

// batch runs a fixed experiment list through the library's canonical
// campaign entry point, one pool seed per cycle.
type batch struct {
	ids     []string
	quick   bool
	workers int
	seeds   []int64
	next    int
}

// start caps the process at the workload's worker count, so the
// single-worker workloads are single-threaded baselines, garbage
// collector included, and no workload uses more cores than it has
// workers on a larger machine.
func (b *batch) start() error {
	runtime.GOMAXPROCS(b.workers)
	return fivegsim.ValidateExperiments(b.ids...)
}

func (b *batch) run(ctx context.Context, p *phase, until time.Time) {
	for {
		seed := b.seeds[b.next%len(b.seeds)]
		b.next++
		cfg := fivegsim.Config{Seed: seed, Quick: b.quick, Workers: b.workers, Obs: p.reg}
		t0 := time.Now()
		res, err := fivegsim.RunExperimentsContext(ctx, cfg, b.ids...)
		wall := time.Since(t0)
		p.attempt(len(b.ids))
		if err != nil || len(res) != len(b.ids) {
			p.fail(len(b.ids), "cycle at seed %d: %d results, %v", seed, len(res), err)
		} else {
			p.cycle(wall)
			for i, r := range res {
				p.check(r, b.ids[i], seed, digests[digestKey(b.ids[i], seed, b.quick)])
				p.unit(r)
			}
			if p.traced {
				p.span(span{Name: fmt.Sprintf("cycle seed=%d", seed), Start: t0, Dur: wall, Tid: 1})
				for i, r := range res {
					p.span(span{Name: fmt.Sprintf("%s seed=%d", r.ID, seed), Start: r.Manifest.StartedAt,
						Dur: r.Manifest.WallTime, Tid: 2 + i, Parent: fmt.Sprintf("cycle seed=%d", seed)})
				}
			}
		}
		// Start another cycle only if half of one fits before the
		// deadline, so a run overshoots its time by at most half a cycle.
		if ctx.Err() != nil || !time.Now().Add(wall/2).Before(until) {
			return
		}
	}
}

func (b *batch) finish(context.Context, *phase) {}

//go:embed testdata/digests.json
var digestsJSON []byte

// digests maps digestKey(experiment, seed, quick) to the SHA-256 of the
// unit's output.
var digests = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("benchmark: testdata/digests.json: " + err.Error())
	}
	return m
}()

func digestKey(id string, seed int64, quick bool) string {
	mode := "full"
	if quick {
		mode = "quick"
	}
	return fmt.Sprintf("%s/%s/%d", id, mode, seed)
}

// digest hashes what an experiment reports — its lines and its values —
// and leaves out the manifest, which records timings.
func digest(r fivegsim.Result) string {
	h := sha256.New()
	for _, l := range r.Lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	keys := make([]string, 0, len(r.Values))
	for k := range r.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(r.Values[k], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}
