package pop

// Population dynamics: birth–death UE churn, stateful A3 hand-off and
// load-coupled interference (DESIGN.md §13). All three are opt-in Model
// extensions; the zero values keep the engine bit-for-bit on the PR-6
// behaviour (fixed population, memoryless best-server re-attach, static
// per-cell interference Load), which the determinism and N=1 probe
// suites continue to pin.
//
// Determinism contract: churn is a serial pre-phase-A step whose draws
// come from a dedicated substream reseeded per tick (rng.Key.At(0,
// tick)), deaths scan slots in index order and births pop the free list
// LIFO — so the live set after the churn step is a pure function of
// (seed, tick), never of the worker count. A3 state and the ping-pong
// counters live in per-UE arena slots written only by the owning phase-A
// shard. The load EWMA folds the (deterministic) per-cell utilization
// serially after phase C. Workers therefore stays a pure throughput
// knob with every dynamic enabled (TestDynamicsWorkersEquivalence).

import (
	"fmt"
	"math"
	"math/rand"

	"fivegsim/internal/deploy"
	"fivegsim/internal/geom"
	"fivegsim/internal/radio"
)

// ChurnModel parametrizes birth–death UE churn: Poisson arrivals per
// tick, exponentially distributed lifetimes (in ticks), and a fixed
// arena capacity so steady-state ticks stay allocation-free — arrivals
// that find the arena full are dropped (counted as blocked births).
type ChurnModel struct {
	Enabled bool
	// ArrivalPerTick is the Poisson mean of per-tick UE arrivals.
	ArrivalPerTick float64
	// MeanLifetimeTicks is the mean of the exponential UE lifetime,
	// in ticks (default 300 — 30 s of 100 ms ticks).
	MeanLifetimeTicks float64
	// maxN caps the arena (live UEs at any instant). 0 sizes it from
	// Little's law: N + λ·L plus a 4σ Poisson fluctuation margin.
	maxN int
}

// A3Model parametrizes the per-UE sticky serving-cell state machine:
// Eq. (1)'s hysteresis margin applied on RSRP, sustained for a
// time-to-trigger counted in scheduling ticks. The zero value (Enabled
// false) is the memoryless best-server re-pick of PR 6.
type A3Model struct {
	Enabled bool
	// HysteresisDB is the RSRP advantage a neighbor must hold over the
	// serving cell (the paper's ISP runs 3 dB).
	HysteresisDB float64
	// TTTTicks is how many consecutive ticks (including the firing one)
	// the advantage must hold; ≤1 hands off on the first qualifying
	// tick. At 100 ms ticks the ISP's 324 ms rounds to 3.
	TTTTicks int
}

// PingPongWindowTicks bounds the A→B→A ping-pong detector: a hand-off
// back to the previous serving cell within this many ticks counts as a
// ping-pong (10 ≈ 1 s at 100 ms ticks).
const PingPongWindowTicks = 10

// LoadCouplingAlpha is the load-coupling EWMA's damping weight on the
// newest utilization sample: Load_{t+1} = (1−α)·Load_t + α·util_t.
// Model.LoadCoupling couples each cell's interference Load to the
// scheduler's measured PRB utilization this way, replacing the static
// per-cell Load constant: cells that the population actually fills
// interfere more, which reshapes SINR and therefore next tick's
// attachment and rates. The fixed point is bounded in [0, 1]
// (TestLoadCouplingBounded).
const LoadCouplingAlpha = 0.3

// dynamicsDefaults fills the dynamic sub-models' zero fields (called
// from Model.withDefaults).
func (m Model) dynamicsDefaults() Model {
	if m.Churn.Enabled && m.Churn.MeanLifetimeTicks <= 0 {
		m.Churn.MeanLifetimeTicks = 300
	}
	if m.A3.Enabled && m.A3.TTTTicks < 1 {
		m.A3.TTTTicks = 1
	}
	return m
}

// churnCapacity sizes the arena for a churning population: the initial
// count plus the Little's-law standing churn population λ·L and a 4σ
// Poisson margin, so blocked births are rare at the configured rates.
func churnCapacity(n int, ch ChurnModel) int {
	if ch.maxN > 0 {
		if ch.maxN < n {
			return n
		}
		return ch.maxN
	}
	standing := ch.ArrivalPerTick * ch.MeanLifetimeTicks
	c := float64(n) + standing + 4*math.Sqrt(standing+1) + 16
	return int(math.Ceil(c))
}

// expTicks draws an exponential lifetime in ticks with the given mean,
// floored at 1 (a UE lives at least one tick) and clamped far below
// int32 overflow.
func expTicks(r *rand.Rand, mean float64) int32 {
	t := r.ExpFloat64() * mean
	if t > 1<<30 {
		t = 1 << 30
	}
	return 1 + int32(t)
}

// churnStep runs the serial birth–death step for the tick about to
// execute: deaths first (slot order), then Poisson births popped off the
// free list. All draws come from the churn substream reseeded for this
// tick, so the step is a pure function of (seed, tick). Nothing here
// allocates: the free list is a preallocated stack and the per-UE resets
// write arena slots in place.
func (p *Population) churnStep() {
	p.tickBirths, p.tickDeaths, p.tickBlocked = 0, 0, 0
	tick := int32(p.tick)
	for i := 0; i < p.n; i++ {
		if p.bornTick[i] >= 0 && p.deathTick[i] <= tick {
			p.killUE(i)
			p.tickDeaths++
		}
	}
	r := p.churnRng
	r.Seed(p.churnKey.At(0, p.tick))
	births := deploy.PoissonCount(r, p.Model.Churn.ArrivalPerTick)
	for b := 0; b < births; b++ {
		if len(p.free) == 0 {
			p.tickBlocked++
			continue
		}
		slot := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		p.spawnUE(int(slot), r)
		p.tickBirths++
	}
	p.alive += int(p.tickBirths) - int(p.tickDeaths)
	p.birthsTotal += p.tickBirths
	p.deathsTotal += p.tickDeaths
	p.blockedTotal += p.tickBlocked
}

// spawnUE initializes a freshly claimed arena slot: PPP position, class
// draw, waypoint, and an exponential death tick. Draws happen in fixed
// field order on the churn substream.
func (p *Population) spawnUE(i int, r *rand.Rand) {
	m := &p.Model
	p.Campus.PlacePPP(r, p.x[i:i+1], p.y[i:i+1])
	p.tx[i], p.ty[i] = p.x[i], p.y[i]
	p.speed[i] = 0
	if m.MaxSpeedKmh > 0 {
		t := p.Campus.RoadPoint(r.Float64() * p.Campus.RoadLengthM())
		p.tx[i], p.ty[i] = t.X, t.Y
		p.speed[i] = drawSpeedKmh(r, *m) / 3.6
	}
	p.class[i] = m.Mix.Sample(r)
	p.bornTick[i] = int32(p.tick)
	p.deathTick[i] = int32(p.tick) + expTicks(r, m.Churn.MeanLifetimeTicks)
	p.cell[i] = -1
	p.se[i] = 0
	p.demandBps[i] = 0
	p.demandPRB[i] = 0
	p.sumBits[i] = 0
	if m.A3.Enabled {
		p.a3Hold[i] = 0
		p.prevCell[i] = -1
		p.lastHOTick[i] = 0
		p.hoCount[i], p.ppCount[i] = 0, 0
	}
}

// killUE returns slot i to the free list and clears its service state so
// the dead slot sorts into the outage bucket and is never scheduled.
func (p *Population) killUE(i int) {
	p.bornTick[i] = -1
	p.cell[i] = -1
	p.se[i] = 0
	p.speed[i] = 0
	p.demandBps[i] = 0
	p.demandPRB[i] = 0
	p.free = append(p.free, int32(i))
}

// a3Attach is the stateful attach step: the serving cell persists across
// ticks and changes only through the A3 rule — a candidate holding
// HysteresisDB of RSRP advantage for TTTTicks consecutive ticks — or
// through radio-link failure (serving no longer usable), which forces an
// immediate hand-off. Candidate selection is the same NSA policy as the
// memoryless path: strongest usable NR cell, else strongest usable LTE
// cell. Writes stay confined to UE i's arena slots.
func (p *Population) a3Attach(i int, d float64) {
	pos := geom.Point{X: p.x[i], Y: p.y[i]}
	cand, ok := p.Campus.BestServer(radio.NR, pos)
	if !ok || !cand.Usable() {
		lte, okL := p.Campus.BestServer(radio.LTE, pos)
		if !okL || !lte.Usable() {
			// Coverage hole: service drops, serving state resets — the
			// eventual re-attach is a fresh camp, not a hand-off.
			p.cell[i] = -1
			p.se[i] = 0
			p.a3Hold[i] = 0
			return
		}
		cand = lte
	}
	ciCand := p.pciIdx[cand.PCI]
	prior := p.cell[i]
	if prior < 0 || prior == ciCand {
		// Fresh attach after outage/birth, or already serving the best
		// candidate: camp on it, no event, TTT disarmed.
		p.a3Hold[i] = 0
		p.cell[i] = ciCand
		p.se[i] = cand.SE
		p.setDemandPRB(i, int(ciCand), d)
		return
	}
	serv, okS := p.Campus.MeasureServing(p.cells[prior].Tech, pos, p.cells[prior].PCI)
	if !okS || !serv.Usable() {
		// Radio-link failure: the serving cell fell below the service
		// threshold (or ≥14 dB under the local best, off the field-map
		// shortlist). Forced hand-off, no TTT.
		p.recordHandoff(i, ciCand)
		p.a3Hold[i] = 0
		p.cell[i] = ciCand
		p.se[i] = cand.SE
		p.setDemandPRB(i, int(ciCand), d)
		return
	}
	better := cand.RSRPdBm-serv.RSRPdBm > p.Model.A3.HysteresisDB
	if p.cells[prior].Tech != cand.Tech {
		// Vertical candidate (LTE serving, NR back in coverage): RSRP is
		// not comparable across bands, so sustained candidate usability
		// stands in for the margin — cand is usable by construction.
		better = true
	}
	if better {
		p.a3Hold[i]++
		if int(p.a3Hold[i]) >= p.Model.A3.TTTTicks {
			p.recordHandoff(i, ciCand)
			p.a3Hold[i] = 0
			p.cell[i] = ciCand
			p.se[i] = cand.SE
			p.setDemandPRB(i, int(ciCand), d)
			return
		}
	} else {
		p.a3Hold[i] = 0
	}
	// Stay on the serving cell at its measured (possibly degraded) SE.
	p.se[i] = serv.SE
	p.setDemandPRB(i, int(prior), d)
}

// recordHandoff books a serving-cell change for UE i onto the per-UE
// hand-off and ping-pong counters (a hand-off back to the previous
// serving cell within the ping-pong window is a ping-pong).
func (p *Population) recordHandoff(i int, to int32) {
	if to == p.prevCell[i] && p.tick-int(p.lastHOTick[i]) <= PingPongWindowTicks {
		p.ppCount[i]++
	}
	p.prevCell[i] = p.cell[i]
	p.lastHOTick[i] = int32(p.tick)
	p.hoCount[i]++
}

// coupleLoads folds this tick's measured per-cell PRB utilization into
// the damped load EWMA and publishes it as the cells' interference Load
// for the next tick. Serial, fixed cell order — byte-identical for every
// worker count.
func (p *Population) coupleLoads() {
	a := LoadCouplingAlpha
	ncells := len(p.cells)
	row := p.util[(p.tick%p.utilTicks)*ncells : (p.tick%p.utilTicks)*ncells+ncells]
	for c := range p.cells {
		e := (1-a)*p.loadEwma[c] + a*row[c]
		p.loadEwma[c] = e
		p.cells[c].Load = e
	}
}

// RestoreLoads writes the cells' original interference Loads back. A
// load-coupled population temporarily owns its campus's Load fields;
// RunContext restores them on return, and callers driving Tick by hand
// with LoadCoupling enabled must call this before handing the campus to
// anything else.
func (p *Population) RestoreLoads() {
	for c, cell := range p.cells {
		cell.Load = p.baseLoad[c]
	}
}

// Alive returns the number of live UEs (== Len() without churn).
func (p *Population) Alive() int { return p.alive }

// Births returns the cumulative birth count.
func (p *Population) Births() int64 { return p.birthsTotal }

// Deaths returns the cumulative death count.
func (p *Population) Deaths() int64 { return p.deathsTotal }

// Handoffs returns the cumulative hand-off and ping-pong counts over
// the live arena (counters of dead UEs leave the totals when their slot
// is reused; the telemetry counters keep the monotone totals). Without
// A3 there are no counters and both totals are 0.
func (p *Population) Handoffs() (handoffs, pingpongs int64) {
	for i := range p.hoCount {
		handoffs += int64(p.hoCount[i])
		pingpongs += int64(p.ppCount[i])
	}
	return handoffs, pingpongs
}

// PeakHandoffsPerTick returns the largest single-tick hand-off count
// seen so far — the hand-off-storm amplitude.
func (p *Population) PeakHandoffsPerTick() int64 { return p.hoPeak }

// DynamicsLines formats the population-dynamics summary — live count,
// churn totals, hand-off and ping-pong totals, storm peak — byte-stable
// in the CellLoadLines tradition so the determinism suite can compare
// dynamic runs as raw bytes.
func (p *Population) DynamicsLines() []string {
	ho, pp := p.Handoffs()
	return []string{
		fmt.Sprintf("dynamics alive=%d births=%d deaths=%d blocked=%d free=%d",
			p.alive, p.birthsTotal, p.deathsTotal, p.blockedTotal, len(p.free)),
		fmt.Sprintf("handoff total=%d pingpong=%d storm_peak=%d", ho, pp, p.hoPeak),
	}
}
