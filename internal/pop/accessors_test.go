package pop

import "fivegsim/internal/geom"

// Accessors the tests read the arena through. Production code reads a
// population through its reports and telemetry.

// Place pins UE i at pos and cancels its current waypoint (the probe
// harness teleports its single UE along surveyed positions this way).
// A teleport is a fresh camp: the serving-cell state, the A3
// time-to-trigger and the delivered-bit count reset, so the next tick
// resolves the best server at the new position exactly as the survey
// pipeline does, and DeliveredBits then reads that tick's bits alone.
func (p *Population) Place(i int, pos geom.Point) {
	p.x[i], p.y[i] = pos.X, pos.Y
	p.tx[i], p.ty[i] = pos.X, pos.Y
	p.speed[i] = 0
	p.cell[i] = -1
	p.se[i] = 0
	if p.Model.A3.Enabled {
		p.a3Hold[i] = 0
	}
	p.sumBits[i] = 0
}

// DeliveredBits returns the bits UE i has received since it was born
// or last placed.
func (p *Population) DeliveredBits(i int) float64 { return p.sumBits[i] }

// ServingUtil returns the last tick's PRB utilization sample (granted
// over budget) of UE i's serving cell, or -1 in outage.
func (p *Population) ServingUtil(i int) float64 {
	c := p.cell[i]
	if c < 0 || p.tick == 0 {
		return -1
	}
	return p.util[((p.tick-1)%p.utilTicks)*len(p.cells)+int(c)]
}

// CoupledLoad returns cell c's (dense index) current load EWMA.
func (p *Population) CoupledLoad(c int) float64 { return p.loadEwma[c] }

// FreeSlots returns the current free-list depth. The conservation
// invariant FreeSlots() + Alive() == Len() holds after every tick,
// including a run cut short by cancellation.
func (p *Population) FreeSlots() int { return len(p.free) }

// BlockedBirths returns how many arrivals found the arena full and were
// dropped.
func (p *Population) BlockedBirths() int64 { return p.blockedTotal }

// TickChurn returns the last tick's (births, deaths, blocked) counts —
// the per-tick conservation triple births − deaths == ΔAlive.
func (p *Population) TickChurn() (births, deaths, blocked int64) {
	return p.tickBirths, p.tickDeaths, p.tickBlocked
}
