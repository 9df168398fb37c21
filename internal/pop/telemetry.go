package pop

import (
	"time"

	"fivegsim/internal/obs"
	"fivegsim/internal/traffic"
)

// Live telemetry for the population tick engine, following the arena
// discipline of the tick itself: every instrument handle and every
// accumulator slot is allocated once in New, the sharded tick phases
// write only into their own padded slots, and the serial end-of-tick
// merge folds the slots into the pre-registered obs instruments in
// fixed (shard, cell) order. There is one tick path: without a
// registry the handles are obs's nil-safe no-ops and the slots still
// fill. Telemetry therefore adds zero allocations to the steady-state
// tick and never touches the RNG or any report state — reports are
// byte-identical with a registry attached or not (determinism_test.go
// pins this).
//
// Attach outcomes and PRB demand come off work the tick already does:
// phase B's counting sort leaves the attached count in the bucket cut
// before the outage bucket (every free slot holds cell -1), outage is
// the live count minus that, and phase C sums each cell's segment
// demands as it gathers them (an outage UE demands nothing). The
// phase-A bracket counts only moves, hand-offs and ping-pongs.
//
// Metric namespace (`pop.*`, the des./netsim. convention):
//
//	pop.ticks                       ticks executed
//	pop.ue_moved                    UEs that changed position this tick
//	pop.ue_attached / pop.ue_outage per-tick attach outcomes (UE-ticks)
//	pop.handoffs                    serving-cell changes between ticks
//	pop.pingpongs                   A3 ping-pong hand-offs (A→B→A in window)
//	pop.births / pop.deaths         churn arrivals and departures
//	pop.births_blocked              arrivals dropped on a full arena
//	pop.prb_demand / pop.prb_granted  PRB-ticks demanded vs granted
//	pop.bytes_delivered{class=…}    delivered bytes per traffic class
//	pop.tick_wall_us                tick latency histogram (µs)
//	pop.phase_wall_us{phase=…}      per-phase latency histograms (µs):
//	                                move (churn step and phase A), sort
//	                                (phase B) and schedule (phase C)

// Telemetry bundles the optional observability attachments of a
// population run. Every field may be left zero; the tick runs the same
// path either way (0 allocs/op, PopTick100k and PopTick100kTel).
type Telemetry struct {
	// Obs receives the pop.* instruments described above.
	Obs *obs.Registry
	// Trace receives one "pop.tick" wall-duration span per tick on the
	// simulated timeline.
	Trace *obs.Tracer
	// OnTick, when non-nil, is invoked after every completed tick with
	// the executed tick count and the planned run length — the
	// population layer's contribution to the campaign progress stream.
	// It runs on the goroutine that called Tick; keep it cheap.
	OnTick func(tick, total int)
}

// ueShardCounters is one UE shard's phase-A accumulator, padded to a
// cache line so concurrent shards never write the same line.
type ueShardCounters struct {
	moved, handoffs, pingpongs int64
	_                          [5]int64 // pad to 64 B
}

// cellCounters is one cell's phase-C accumulator slot (cells are the
// phase-C shard unit), padded to a cache line.
type cellCounters struct {
	prbDemand, grantedPRB int64
	bits                  [traffic.NumClasses]float64 // delivered bits per class
	_                     [3]int64                    // pad to 64 B
}

// telemetry is the instrument state New attaches.
type telemetry struct {
	opts Telemetry

	ticks      *obs.Counter
	moved      *obs.Counter
	attached   *obs.Counter
	outage     *obs.Counter
	handoffs   *obs.Counter
	pingpongs  *obs.Counter
	births     *obs.Counter
	deaths     *obs.Counter
	blocked    *obs.Counter
	prbDemand  *obs.Counter
	prbGranted *obs.Counter
	bytes      [traffic.NumClasses]*obs.Counter
	tickWall   *obs.Histogram
	phaseWall  [len(tickPhases)]*obs.Histogram

	ueShard []ueShardCounters
	cell    []cellCounters
	// byteCarry holds the sub-byte residue per class so the integer
	// byte counters stay exact over long runs.
	byteCarry [traffic.NumClasses]float64
}

// tickPhases names the timed spans of a tick, in order: the
// pop.phase_wall_us series.
var tickPhases = [...]string{"move", "sort", "schedule"}

// newTelemetry builds New's telemetry state for a population of
// ueShards UE shards over ncells cells. All instruments are
// pre-registered here so the tick path never takes the registry lock.
func newTelemetry(t Telemetry, ueShards, ncells int) telemetry {
	reg := t.Obs // nil-safe: handles no-op, merge cost stays negligible
	tel := telemetry{
		opts:       t,
		ticks:      reg.Counter("pop.ticks"),
		moved:      reg.Counter("pop.ue_moved"),
		attached:   reg.Counter("pop.ue_attached"),
		outage:     reg.Counter("pop.ue_outage"),
		handoffs:   reg.Counter("pop.handoffs"),
		pingpongs:  reg.Counter("pop.pingpongs"),
		births:     reg.Counter("pop.births"),
		deaths:     reg.Counter("pop.deaths"),
		blocked:    reg.Counter("pop.births_blocked"),
		prbDemand:  reg.Counter("pop.prb_demand"),
		prbGranted: reg.Counter("pop.prb_granted"),
		tickWall:   reg.Histogram("pop.tick_wall_us", obs.DurationBuckets),
		ueShard:    make([]ueShardCounters, ueShards),
		cell:       make([]cellCounters, ncells),
	}
	for c := traffic.Class(0); c < traffic.NumClasses; c++ {
		tel.bytes[c] = reg.Counter("pop.bytes_delivered{class=" + c.String() + "}")
	}
	for i, ph := range tickPhases {
		tel.phaseWall[i] = reg.Histogram("pop.phase_wall_us{phase="+ph+"}", obs.DurationBuckets)
	}
	return tel
}

// mergeTick folds the per-shard and per-cell accumulators into the
// registered instruments and resets them, then emits the tick span, the
// tick and per-phase latency samples and the progress callback. Serial, called once per Tick on
// the ticking goroutine after phase C; fixed iteration order keeps
// counter totals identical for every Workers value.
func (p *Population) mergeTick(tickIdx int, wall time.Duration, phases [len(tickPhases)]time.Duration) {
	t := &p.tel
	var moved, handoffs, pingpongs int64
	for i := range t.ueShard {
		sc := &t.ueShard[i]
		moved += sc.moved
		handoffs += sc.handoffs
		pingpongs += sc.pingpongs
		*sc = ueShardCounters{}
	}
	attached := int64(p.bounds[len(p.cells)])
	var demand, granted int64
	var bits [traffic.NumClasses]float64
	for c := range t.cell {
		cc := &t.cell[c]
		demand += cc.prbDemand
		granted += cc.grantedPRB
		for k := range cc.bits {
			bits[k] += cc.bits[k]
		}
		*cc = cellCounters{}
	}
	t.ticks.Inc()
	t.moved.Add(moved)
	t.attached.Add(attached)
	t.outage.Add(int64(p.alive) - attached)
	t.handoffs.Add(handoffs)
	t.pingpongs.Add(pingpongs)
	t.births.Add(p.tickBirths)
	t.deaths.Add(p.tickDeaths)
	t.blocked.Add(p.tickBlocked)
	t.prbDemand.Add(demand)
	t.prbGranted.Add(granted)
	for k := range bits {
		t.byteCarry[k] += bits[k] / 8
		whole := int64(t.byteCarry[k])
		t.byteCarry[k] -= float64(whole)
		t.bytes[k].Add(whole)
	}
	t.tickWall.Observe(float64(wall) / float64(time.Microsecond))
	for i, d := range phases {
		t.phaseWall[i].Observe(float64(d) / float64(time.Microsecond))
	}
	t.opts.Trace.WallSpan("pop.tick", "pop", time.Duration(tickIdx)*p.Model.TickDur, wall)
	if t.opts.OnTick != nil {
		t.opts.OnTick(p.tick, p.Model.Ticks)
	}
}
