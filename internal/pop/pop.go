// Package pop is the population layer: PPP-placed UE populations over
// the deployed campus, contending for per-cell PRB budgets under a
// per-UE traffic mix. It scales the paper's single walking probe into
// the system regime — cell-load distributions, per-UE throughput
// fairness and outage exposure as emergent properties of contention —
// while keeping the probe experiments recoverable bit-for-bit as the
// N=1 special case (see probe_test.go).
//
// UE state is structure-of-arrays in a preallocated arena: one tick of a
// 100k-UE population is a batch loop over flat slices with zero per-UE
// allocations (the PopTick100k bench and alloc_test.go guard this).
// Ticks follow the internal/par determinism contract — per-shard
// substreams reseeded from an rng.Key per (shard, tick), writes confined
// to shard-owned slots — so every report is bit-identical for any
// Workers value.
package pop

import (
	"context"
	"math"
	"math/rand"
	"time"

	"fivegsim/internal/deploy"
	"fivegsim/internal/geom"
	"fivegsim/internal/par"
	"fivegsim/internal/radio"
	"fivegsim/internal/rng"
	"fivegsim/internal/traffic"
)

// popShardSize is the number of UEs per RNG shard. Like the coverage
// survey's shard size, it is a pure function of the population size —
// never of the worker count — so the substream an individual UE draws
// from is stable across Workers settings.
const popShardSize = 1024

// minWalkSpeedKmh floors the redrawn waypoint speed so a walker can
// never draw 0 km/h and stall on a waypoint forever.
const minWalkSpeedKmh = 0.3

// Model parametrizes a population run.
type Model struct {
	// N fixes the population size. 0 draws it from the PPP: a Poisson
	// count with mean LambdaPerKm2 × campus area.
	N int
	// LambdaPerKm2 is the PPP intensity used when N is 0.
	LambdaPerKm2 float64
	// Mix is the per-UE application mix (web/video/bulk weights); the
	// zero value falls back to traffic.DefaultMix.
	Mix traffic.MixWeights
	// TickDur is the scheduling tick (default 100 ms, one measurement
	// bin of the paper's traces).
	TickDur time.Duration
	// Ticks is the run length used by Run and sizes the utilization
	// sample window (default 50).
	Ticks int
	// MaxSpeedKmh bounds the random-waypoint walking speed from above;
	// minWalkSpeedKmh bounds it from below. 0 keeps the population
	// static (a PPP snapshot).
	MaxSpeedKmh float64
	// Churn, A3 and LoadCoupling are the population dynamics
	// (dynamics.go). Their zero values reproduce the pre-dynamics
	// engine bit-for-bit: fixed population, memoryless best-server
	// attach, static interference Load.
	Churn ChurnModel
	A3    A3Model
	// LoadCoupling couples each cell's interference Load to its measured
	// PRB utilization through an EWMA with weight LoadCouplingAlpha.
	LoadCoupling bool
}

// DefaultModel returns the campus default: a PPP population at 5000
// UEs/km² (≈2300 UEs over the 0.46 km² campus), the default traffic mix,
// 100 ms ticks and pedestrian mobility up to 5 km/h.
func DefaultModel() Model {
	return Model{
		LambdaPerKm2: 5000,
		Mix:          traffic.DefaultMix(),
		TickDur:      100 * time.Millisecond,
		Ticks:        50,
		MaxSpeedKmh:  5,
	}
}

func (m Model) withDefaults() Model {
	if m.TickDur <= 0 {
		m.TickDur = 100 * time.Millisecond
	}
	if m.Ticks <= 0 {
		m.Ticks = 1
	}
	if m.Mix == (traffic.MixWeights{}) {
		m.Mix = traffic.DefaultMix()
	}
	return m.dynamicsDefaults()
}

// Population is a UE population and its preallocated tick arena. All
// per-UE state is structure-of-arrays; nothing inside Tick allocates.
type Population struct {
	Campus *deploy.Campus
	Model  Model

	n     int // arena capacity (== initial count without churn)
	alive int // live UEs; tracked by the churn step

	// Per-UE state (SoA arena).
	x, y      []float64 // position (m)
	tx, ty    []float64 // waypoint target
	speed     []float64 // m/s; 0 = static
	class     []traffic.Class
	demandBps []float64 // this tick's offered rate
	se        []float64 // serving-link spectral efficiency (bits/RE/layer)
	sumBits   []float64 // delivered bits accumulated over the run
	cell      []int32   // serving cell dense index, -1 = outage (and on every free slot)
	demandPRB []int32   // this tick's PRB demand (≤ cell budget)

	// Dynamics state (dynamics.go), allocated only when the model
	// enables its dynamic: bornTick/deathTick with churn, the rest with
	// A3 (nil otherwise). bornTick is -1 on free slots and otherwise
	// anchors the lifetime; a3Hold is the A3 time-to-trigger counter in
	// ticks; prevCell/lastHOTick feed the ping-pong detector;
	// hoCount/ppCount are per-UE event totals.
	bornTick   []int32
	deathTick  []int32
	a3Hold     []int32
	prevCell   []int32
	lastHOTick []int32
	hoCount    []int32
	ppCount    []int32
	free       []int32 // free-slot stack (churn), preallocated to capacity
	churnRng   *rand.Rand
	churnKey   rng.Key
	hoPrev     int64 // cumulative hand-offs at last tick boundary
	hoPeak     int64 // largest single-tick hand-off count (storm metric)

	tickBirths, tickDeaths, tickBlocked    int64
	birthsTotal, deathsTotal, blockedTotal int64

	// Load-coupling state: the campus cells' original Loads and the
	// utilization EWMA published onto them each tick.
	baseLoad []float64
	loadEwma []float64

	// Cells, dense-indexed NR first then LTE.
	cells  []*radio.Cell
	budget []int32
	pciIdx map[int]int32

	// Counting-sort and scheduler scratch.
	cnt         []int32 // per-bucket counts, then fill cursors
	bounds      []int   // bucket cut points over order; bucket ncells = outage
	order       []int32 // UE indices grouped by serving cell
	schedDemand []int32
	schedGrant  []int32
	segs        []par.Range // per-cell segments over order, rebuilt per tick

	// Determinism plumbing.
	ueShards []par.Range
	shardRng []*rand.Rand
	ueKey    rng.Key

	// Accumulators.
	util      []float64 // utilization ring: Model.Ticks × ncells samples
	utilTicks int
	attach    []int64 // per-cell total attached UE-ticks
	tick      int

	// Live telemetry (telemetry.go); without a registry its handles
	// are obs's nil-safe no-ops.
	tel telemetry

	// Tick-phase closures, built once so Tick allocates nothing.
	phaseA func(par.Range)
	phaseC func(par.Range)
}

// New builds a population over the campus: PPP placement (outdoor,
// uniform given the count), per-UE class assignment from the mix, and
// the tick arena the model reads. The campus field maps are warmed up
// front so no tick pays for building a shortlist.
// Telemetry attaches here, once: pop.* instruments into t.Obs (which
// may be nil), per-tick spans into t.Trace and tick progress through
// t.OnTick.
func New(c *deploy.Campus, m Model, seed int64, t Telemetry) *Population {
	m = m.withDefaults()
	src := rng.New(seed)
	placeRng := src.Stream("pop.place")
	n := m.N
	if n <= 0 {
		n = deploy.PoissonCount(placeRng, m.LambdaPerKm2*c.AreaKm2())
		if n < 1 {
			n = 1
		}
	}
	capN := n
	if m.Churn.Enabled {
		capN = churnCapacity(n, m.Churn)
	}
	p := &Population{Campus: c, Model: m, n: capN, alive: n}

	p.x = make([]float64, capN)
	p.y = make([]float64, capN)
	p.tx = make([]float64, capN)
	p.ty = make([]float64, capN)
	p.speed = make([]float64, capN)
	p.class = make([]traffic.Class, capN)
	p.demandBps = make([]float64, capN)
	p.se = make([]float64, capN)
	p.sumBits = make([]float64, capN)
	p.cell = make([]int32, capN)
	p.demandPRB = make([]int32, capN)

	for i := range p.cell {
		p.cell[i] = -1 // unattached until the first tick resolves
	}
	// Without churn every slot is live, and without A3 nothing books a
	// hand-off, so their arrays would only ever read 0.
	if m.Churn.Enabled {
		p.bornTick = make([]int32, capN)
		p.deathTick = make([]int32, capN)
	}
	if m.A3.Enabled {
		p.a3Hold = make([]int32, capN)
		p.prevCell = make([]int32, capN)
		p.lastHOTick = make([]int32, capN)
		p.hoCount = make([]int32, capN)
		p.ppCount = make([]int32, capN)
		for i := range p.prevCell {
			p.prevCell[i] = -1
		}
	}

	p.cells = append(append([]*radio.Cell(nil), c.NRCells...), c.LTECells...)
	p.budget = make([]int32, len(p.cells))
	p.pciIdx = make(map[int]int32, len(p.cells))
	for i, cell := range p.cells {
		p.budget[i] = int32(cell.Band.PRBs)
		p.pciIdx[cell.PCI] = int32(i)
	}

	ncells := len(p.cells)
	p.cnt = make([]int32, ncells+1)
	p.bounds = make([]int, ncells+2)
	p.order = make([]int32, capN)
	p.schedDemand = make([]int32, capN)
	p.schedGrant = make([]int32, capN)
	p.segs = make([]par.Range, 0, ncells)

	p.utilTicks = m.Ticks
	p.util = make([]float64, p.utilTicks*ncells)
	p.attach = make([]int64, ncells)

	p.baseLoad = make([]float64, ncells)
	p.loadEwma = make([]float64, ncells)
	for i, cell := range p.cells {
		p.baseLoad[i] = cell.Load
		p.loadEwma[i] = cell.Load
	}

	c.WarmFieldMaps(1)
	c.PlacePPP(placeRng, p.x[:n], p.y[:n])
	copy(p.tx[:n], p.x[:n])
	copy(p.ty[:n], p.y[:n])
	classRng := src.Stream("pop.class")
	for i := 0; i < n; i++ {
		p.class[i] = m.Mix.Sample(classRng)
	}
	if m.MaxSpeedKmh > 0 {
		walkRng := src.Stream("pop.walk")
		for i := 0; i < n; i++ {
			t := c.RoadPoint(walkRng.Float64() * c.RoadLengthM())
			p.tx[i], p.ty[i] = t.X, t.Y
			p.speed[i] = drawSpeedKmh(walkRng, m) / 3.6
		}
	}
	if m.Churn.Enabled {
		// Slots [n, capN) start free, stacked so the first births claim
		// the lowest indices; initial UEs draw their lifetimes from a
		// dedicated init stream so enabling churn does not perturb the
		// placement/class/walk draws above.
		p.free = make([]int32, 0, capN)
		for i := capN - 1; i >= n; i-- {
			p.bornTick[i] = -1
			p.free = append(p.free, int32(i))
		}
		initRng := src.Stream("pop.churn.init")
		for i := 0; i < n; i++ {
			p.deathTick[i] = expTicks(initRng, m.Churn.MeanLifetimeTicks)
		}
		p.churnKey = src.Key("pop.churn")
		p.churnRng = src.Stream("pop.churn.tick")
	}

	p.ueShards = par.ShardSize(capN, popShardSize)
	p.ueKey = src.Key("pop.ue")
	p.shardRng = make([]*rand.Rand, len(p.ueShards))
	for i := range p.shardRng {
		p.shardRng[i] = src.Shard("pop.ue", i)
	}
	p.tel = newTelemetry(t, len(p.ueShards), len(p.cells))

	churn, a3 := m.Churn.Enabled, m.A3.Enabled
	p.phaseA = func(r par.Range) {
		rr := p.shardRng[r.Index]
		rr.Seed(p.ueKey.At(r.Index, p.tick))
		// The per-UE step, bracketed by before/after reads feeding the
		// shard's own accumulator slot. prev-cell comparison counts
		// hand-offs (a UE unattached before the tick, as every UE is
		// before the first, holds cell -1); position comparison counts
		// movers; ping-pong deltas come off the per-UE counter the A3
		// state machine maintains.
		sc := &p.tel.ueShard[r.Index]
		for i := r.Lo; i < r.Hi; i++ {
			if churn && p.bornTick[i] < 0 {
				continue // free churn slot
			}
			prev := p.cell[i]
			px, py := p.x[i], p.y[i]
			var pp int32
			if a3 {
				pp = p.ppCount[i]
			}
			p.stepUE(i, rr)
			if p.x[i] != px || p.y[i] != py {
				sc.moved++
			}
			if c := p.cell[i]; c >= 0 && prev >= 0 && prev != c {
				sc.handoffs++
			}
			if a3 && p.ppCount[i] != pp {
				sc.pingpongs++
			}
		}
	}
	p.phaseC = func(r par.Range) {
		p.scheduleCell(r)
	}
	return p
}

// drawSpeedKmh draws a waypoint speed up to the model's maximum, floored
// so walkers never stall.
func drawSpeedKmh(r *rand.Rand, m Model) float64 {
	hi := m.MaxSpeedKmh
	if hi < minWalkSpeedKmh {
		hi = minWalkSpeedKmh
	}
	return rng.Uniform(r, minWalkSpeedKmh, hi)
}

// Len returns the arena size — the population size without churn, the
// slot capacity with it (Alive counts the live UEs).
func (p *Population) Len() int { return p.n }

// Ticks returns how many ticks have executed.
func (p *Population) Ticks() int { return p.tick }

// ServingPCI returns UE i's serving cell PCI after the last tick, or -1
// in outage.
func (p *Population) ServingPCI(i int) int {
	if p.cell[i] < 0 {
		return -1
	}
	return p.cells[p.cell[i]].PCI
}

// RunContext builds the population and executes Model.Ticks ticks
// across up to workers goroutines (the par.Workers convention); reports
// are bit-identical for every workers value. Live telemetry rides on t
// (see New); reports are byte-identical with or without it.
//
// The context is checked at every tick boundary, so a canceled campaign
// stops within one tick. The returned population holds the completed
// ticks' state — partial reports are byte-identical to a run planned for
// exactly that many ticks, the free-list conservation invariant holds,
// and the campus's original interference Loads are restored even on the
// early-exit path. The error is the context's (wrapped verbatim) when
// the run was cut short, nil when every tick executed.
func RunContext(ctx context.Context, c *deploy.Campus, m Model, seed int64, workers int, t Telemetry) (*Population, error) {
	p := New(c, m, seed, t)
	defer p.RestoreLoads()
	for i := 0; i < p.Model.Ticks; i++ {
		if err := ctx.Err(); err != nil {
			return p, err
		}
		p.Tick(workers)
	}
	return p, nil
}

// Tick advances the population by one scheduling interval:
//
//	A. per-UE (sharded): move, draw offered traffic, attach through the
//	   cached BestServer field maps, convert demand to PRBs;
//	B. serial O(N): counting-sort UEs into per-cell groups;
//	C. per-cell (sharded): run the PRB scheduler over each cell's group,
//	   scatter grants, convert to delivered throughput, accumulate
//	   cell-load and fairness state.
//
// Workers only sets the goroutine count; shard layouts depend on the
// population and cell counts alone, so results are bit-identical for
// every value. With workers 1 the phases run inline — the zero-alloc
// batch loop PopTick100k measures.
func (p *Population) Tick(workers int) {
	wall0 := time.Now()
	if p.Model.Churn.Enabled {
		p.churnStep()
	}
	par.Do(workers, p.ueShards, p.phaseA)
	wallA := time.Now()

	// Phase B: counting sort by serving cell. Bucket ncells collects the
	// outage UEs; they sort after every cell and are not scheduled.
	ncells := len(p.cells)
	for b := range p.cnt {
		p.cnt[b] = 0
	}
	for i := 0; i < p.n; i++ {
		b := p.cell[i]
		if b < 0 {
			b = int32(ncells)
		}
		p.cnt[b]++
	}
	p.bounds[0] = 0
	for b := 0; b <= ncells; b++ {
		p.bounds[b+1] = p.bounds[b] + int(p.cnt[b])
	}
	for b := range p.cnt {
		p.cnt[b] = int32(p.bounds[b]) // reuse as fill cursors
	}
	for i := 0; i < p.n; i++ {
		b := p.cell[i]
		if b < 0 {
			b = int32(ncells)
		}
		p.order[p.cnt[b]] = int32(i)
		p.cnt[b]++
	}
	p.segs = par.Segments(p.bounds[:ncells+1], p.segs[:0])
	wallB := time.Now()

	par.Do(workers, p.segs, p.phaseC)
	wallC := time.Now()
	if p.Model.LoadCoupling {
		p.coupleLoads()
	}
	if p.Model.A3.Enabled {
		// Hand-off-storm bookkeeping: per-tick hand-off count off the
		// per-UE counters (serial O(N) fold, fixed order).
		var total int64
		for i := 0; i < p.n; i++ {
			total += int64(p.hoCount[i])
		}
		if d := total - p.hoPrev; d > p.hoPeak {
			p.hoPeak = d
		}
		p.hoPrev = total
	}
	p.tick++
	p.mergeTick(p.tick-1, time.Since(wall0),
		[len(tickPhases)]time.Duration{wallA.Sub(wall0), wallB.Sub(wallA), wallC.Sub(wallB)})
}

// stepUE is the phase-A batch body: one UE's move/demand/attach step.
// Writes are confined to UE i's slots.
func (p *Population) stepUE(i int, r *rand.Rand) {
	m := &p.Model
	if m.MaxSpeedKmh > 0 && p.speed[i] > 0 {
		pos := geom.Point{X: p.x[i], Y: p.y[i]}
		tgt := geom.Point{X: p.tx[i], Y: p.ty[i]}
		step := p.speed[i] * m.TickDur.Seconds()
		if pos.Dist(tgt) <= step {
			pos = tgt
			nt := p.Campus.RoadPoint(r.Float64() * p.Campus.RoadLengthM())
			p.tx[i], p.ty[i] = nt.X, nt.Y
			p.speed[i] = drawSpeedKmh(r, *m) / 3.6
		} else {
			dir := tgt.Sub(pos)
			norm := math.Hypot(dir.X, dir.Y)
			pos = pos.Add(dir.Scale(step / norm))
		}
		p.x[i], p.y[i] = pos.X, pos.Y
	}

	d := traffic.OfferedBps(p.class[i], r)
	p.demandBps[i] = d
	p.demandPRB[i] = 0

	if m.A3.Enabled {
		p.a3Attach(i, d)
		return
	}

	p.cell[i] = -1
	p.se[i] = 0

	pos := geom.Point{X: p.x[i], Y: p.y[i]}
	serving, ok := p.Campus.BestServer(radio.NR, pos)
	if !ok || !serving.Usable() {
		// NSA fallback: no usable NR secondary, data rides the LTE layer.
		lte, okL := p.Campus.BestServer(radio.LTE, pos)
		if !okL || !lte.Usable() {
			return // coverage hole: no service this tick
		}
		serving = lte
	}
	ci := p.pciIdx[serving.PCI]
	p.cell[i] = ci
	p.se[i] = serving.SE
	p.setDemandPRB(i, int(ci), d)
}

// setDemandPRB converts UE i's offered rate d into this tick's PRB demand
// against serving cell ci's band, clamped to the cell budget.
func (p *Population) setDemandPRB(i, ci int, d float64) {
	if d <= 0 {
		return
	}
	perPRB := p.cells[ci].Band.Rate(p.se[i], 1)
	if perPRB <= 0 {
		return
	}
	need := int32(math.Ceil(d / perPRB))
	if need > p.budget[ci] || need < 0 {
		need = p.budget[ci] // a single UE cannot use more than the grid
	}
	p.demandPRB[i] = need
}

// scheduleCell is the phase-C batch body: PRB scheduling and throughput
// for one cell's UE group (r.Index is the dense cell index, [r.Lo, r.Hi)
// its segment of the order array). Writes are confined to the segment's
// UEs and the cell's own accumulator slots.
func (p *Population) scheduleCell(r par.Range) {
	c := r.Index
	seg := r
	demands := p.schedDemand[seg.Lo:seg.Hi]
	grants := p.schedGrant[seg.Lo:seg.Hi]
	// Telemetry writes land in the cell's own padded slot (phase C
	// shards by cell, so slot c belongs to this call alone).
	ct := &p.tel.cell[c]
	for j := 0; j < seg.Len(); j++ {
		demands[j] = p.demandPRB[p.order[seg.Lo+j]]
		ct.prbDemand += int64(demands[j])
	}
	granted := Schedule(demands, grants, p.budget[c], p.tick)
	ct.grantedPRB += int64(granted)

	band := p.cells[c].Band
	tickSec := p.Model.TickDur.Seconds()
	for j := 0; j < seg.Len(); j++ {
		ue := p.order[seg.Lo+j]
		g := grants[j]
		thr := 0.0
		if g > 0 {
			thr = band.Rate(p.se[ue], int(g))
			if thr > p.demandBps[ue] {
				thr = p.demandBps[ue]
			}
		}
		p.sumBits[ue] += thr * tickSec
		ct.bits[p.class[ue]] += thr * tickSec
	}
	p.util[(p.tick%p.utilTicks)*len(p.cells)+c] = float64(granted) / float64(p.budget[c])
	p.attach[c] += int64(seg.Len())
}
