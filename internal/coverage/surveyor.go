package coverage

import (
	"math/rand"

	"fivegsim/internal/deploy"
	"fivegsim/internal/par"
	"fivegsim/internal/rng"
)

// Surveyor runs the paper's blanket walking survey: it walks the campus
// road graph and collects n samples spread over the roads proportionally
// to segment length, with a small perpendicular jitter (pedestrians do
// not walk a perfect line). The paper samples 4630 locations.
//
// The shard layout, the per-shard generators, and the sample buffer are
// built once, so a caller that re-surveys the same campus (benchmarks,
// convergence loops, live re-sampling) pays no per-run allocation. Each
// Run reseeds every shard generator with the exact seed
// rng.Source.Shard would plant, so the survey is byte-identical for
// every worker count, and on every repeat Run.
//
// The determinism contract is internal/par's: the shard layout is a pure
// function of n, each shard draws only from its own substream and writes
// only its own sample slots, and results merge in slot order. Workers is
// a pure throughput knob; one big survey can saturate every core without
// perturbing a single byte of the report.
type Surveyor struct {
	campus *deploy.Campus
	shards []par.Range
	seeds  []int64
	rngs   []*rand.Rand
	survey *Survey
	body   func(par.Range)
}

// NewSurveyor prepares an n-sample survey of c keyed by seed. The
// returned Surveyor is not safe for concurrent Run calls (each Run
// overwrites the shared Survey in place), but one Run may fan out over
// many workers.
func NewSurveyor(c *deploy.Campus, n int, seed int64) *Surveyor {
	src := rng.New(seed)
	sv := &Surveyor{
		campus: c,
		shards: par.ShardSize(n, surveyShardSize),
		survey: &Survey{Campus: c, Samples: make([]Sample, n)},
	}
	sv.seeds = make([]int64, len(sv.shards))
	sv.rngs = make([]*rand.Rand, len(sv.shards))
	for i := range sv.shards {
		sv.seeds[i] = src.ShardSeed("coverage.survey", i)
		sv.rngs[i] = rand.New(rand.NewSource(sv.seeds[i]))
	}
	// The shard body is bound once: rebuilding the closure per Run would
	// put one allocation back on the steady-state path the alloc guard
	// pins at zero.
	sv.body = func(sh par.Range) {
		r := sv.rngs[sh.Index]
		r.Seed(sv.seeds[sh.Index])
		for i := sh.Lo; i < sh.Hi; i++ {
			sv.survey.Samples[i] = drawSample(sv.campus, r)
		}
	}
	return sv
}

// Run executes the survey across up to workers goroutines (0 =
// GOMAXPROCS) and returns the Surveyor's Survey, overwritten in place.
// Every call reproduces the same samples regardless of workers or how
// many runs came before; on a warmed campus a serial Run allocates
// nothing.
func (sv *Surveyor) Run(workers int) *Survey {
	par.Do(workers, sv.shards, sv.body)
	return sv.survey
}
