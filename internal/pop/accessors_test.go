package pop

import "fivegsim/internal/geom"

// Accessors the tests read the arena through. Production code reads a
// population through its reports and telemetry.

// Place pins UE i at pos and cancels its current waypoint (the probe
// harness teleports its single UE along surveyed positions this way).
// A teleport is a fresh camp: the serving-cell state and the A3
// time-to-trigger reset, so the next tick resolves the best server at
// the new position exactly as the survey pipeline does.
func (p *Population) Place(i int, pos geom.Point) {
	p.x[i], p.y[i] = pos.X, pos.Y
	p.tx[i], p.ty[i] = pos.X, pos.Y
	p.speed[i] = 0
	p.cell[i] = -1
	p.se[i] = 0
	p.a3Hold[i] = 0
}

// GrantPRB returns UE i's PRB grant from the last tick.
func (p *Population) GrantPRB(i int) int { return int(p.grantPRB[i]) }

// ThroughputBps returns UE i's delivered rate over the last tick.
func (p *Population) ThroughputBps(i int) float64 { return p.thrBps[i] }

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
