package netsim

import (
	"math/rand"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/obs"
)

// queue is the store-and-forward core that Hop and RANHop embed: a
// drop-tail FIFO buffer in front of a one-packet serializer slot, the
// fault hooks that act on them, the drop path and the per-hop telemetry.
// The embedding type supplies the two steps in which the hops differ:
// serve (how long the head packet holds the serializer, built on head)
// and txDone (when, and whether, the sent packet is delivered).
//
// The per-packet path is allocation-free in steady state: the buffer is
// a ring, the serializer holds its packet in a struct slot, and the
// scheduler callbacks (serve retry, tx complete, delivery) are bound
// once at construction — the delivery leg rides the scheduler's
// arg-carrying events instead of a per-packet closure.
type queue struct {
	Name string

	sch     *des.Scheduler
	rateBps float64
	prop    time.Duration
	// limit is the buffer size; an arriving packet that does not fit is
	// dropped (drop-tail), the behaviour the paper's bursty loss pattern
	// (Fig. 11) implicates.
	limit int
	// relief is the overflow watermark: after an overflow the buffer
	// refuses every arrival until the backlog is at most limit−relief.
	// 0 is plain drop-tail, since the backlog never exceeds limit.
	relief  int
	lockout bool

	ring        pktRing
	queuedBytes int
	busy        bool

	// inflight is the packet occupying the serializer; the pre-bound
	// callbacks below are what keep the hot path closure-free.
	inflight  *Packet
	serveFn   func()
	txDoneFn  func()
	deliverFn func(any)

	// pool, when set, recycles pool-owned packets this hop terminates.
	// Nil is a no-op.
	pool *PacketPool

	// Fault-injection state (see internal/fault). All of it defaults to
	// the pass-through zero values, so an unfaulted hop draws no random
	// numbers and never waits.
	injectLoss  float64
	injectRng   *rand.Rand
	rateScale   float64 // 0 means no scaling
	outageUntil time.Duration

	// Dropped counts overflows and injected losses. OnDrop, if set,
	// observes every dropped packet (before any pool release — the
	// packet is still intact inside the callback).
	Dropped int64
	OnDrop  func(p *Packet)

	// Telemetry handles (nil = off), resolved once by SetObs.
	cEnq   *obs.Counter
	cDrop  *obs.Counter
	cFwd   *obs.Counter
	cBytes *obs.Counter
	occ    *obs.Histogram
}

// newQueue returns the core of a hop that delivers to next. The caller
// binds serveFn and txDoneFn to its own steps.
func newQueue(sch *des.Scheduler, name string, rateBps float64, prop time.Duration, limitBytes, relief int, next Receiver) queue {
	return queue{
		Name: name, sch: sch, rateBps: rateBps, prop: prop, limit: limitBytes, relief: relief,
		deliverFn: func(a any) { next.Receive(a.(*Packet)) },
	}
}

// SetObs attaches `netsim.*{hop=Name}` instruments: packets
// enqueued/dropped/delivered, delivered bytes, and a buffer-occupancy
// histogram sampled at each enqueue, in which overflow episodes show.
func (q *queue) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	label := "{hop=" + q.Name + "}"
	q.cEnq = reg.Counter("netsim.pkt_enqueued" + label)
	q.cDrop = reg.Counter("netsim.pkt_dropped" + label)
	q.cFwd = reg.Counter("netsim.pkt_delivered" + label)
	q.cBytes = reg.Counter("netsim.bytes_delivered" + label)
	q.occ = reg.Histogram("netsim.occupancy_bytes"+label, obs.ByteBuckets)
}

// SetPool attaches the pool used to recycle pool-owned packets the hop
// terminates.
func (q *queue) SetPool(pl *PacketPool) { q.pool = pl }

// SetRate changes the serving rate. It takes effect for the next packet
// entering the serializer.
func (q *queue) SetRate(bps float64) { q.rateBps = bps }

// QueuedBytes returns the current backlog.
func (q *queue) QueuedBytes() int { return q.queuedBytes }

// SetRateScale scales the serving rate by s (a degradation window,
// 0 < s < 1); s ≤ 0 or s = 1 restores the configured rate.
func (q *queue) SetRateScale(s float64) {
	if s <= 0 || s == 1 {
		q.rateScale = 0
		return
	}
	q.rateScale = s
}

// SetInjectLoss arms (or, with rate ≤ 0, disarms) an i.i.d. drop
// probability applied to arriving packets before they are buffered —
// the fault layer's loss-burst window. Drops count into the hop's
// regular drop statistics and telemetry.
func (q *queue) SetInjectLoss(rate float64, r *rand.Rand) {
	if rate <= 0 {
		q.injectLoss, q.injectRng = 0, nil
		return
	}
	q.injectLoss, q.injectRng = rate, r
}

// SetOutage suspends the serializer for d (a hand-off interruption):
// packets keep arriving and are buffered; service resumes afterwards.
func (q *queue) SetOutage(d time.Duration) {
	if until := q.sch.Now() + d; until > q.outageUntil {
		q.outageUntil = until
	}
}

// Receive implements Receiver: drop or enqueue, then start the
// serializer if it is idle.
func (q *queue) Receive(p *Packet) {
	if q.injectLoss > 0 && q.injectRng.Float64() < q.injectLoss {
		q.drop(p)
		return
	}
	if q.lockout && q.queuedBytes > q.limit-q.relief {
		q.drop(p)
		return
	}
	q.lockout = false
	if q.queuedBytes+p.Wire > q.limit {
		q.lockout = true
		q.drop(p)
		return
	}
	q.ring.push(p)
	q.queuedBytes += p.Wire
	q.cEnq.Inc()
	q.occ.Observe(float64(q.queuedBytes))
	if !q.busy {
		q.serveFn()
	}
}

// drop records one dropped packet in the stats and telemetry, then
// recycles it if pool-owned.
func (q *queue) drop(p *Packet) {
	q.Dropped++
	q.cDrop.Inc()
	if q.OnDrop != nil {
		q.OnDrop(p)
	}
	q.pool.Release(p)
}

// head is the service step both hops share, given the unscaled line
// rate. It idles on an empty buffer, and waits out an outage or a
// stalled link (scaled rate ≤ 0, retried every millisecond) with the
// head packet still queued; those return nil. Otherwise it moves the
// head packet into the serializer and returns it with the scaled rate.
func (q *queue) head(rate float64) (*Packet, float64) {
	if q.ring.len() == 0 {
		q.busy = false
		return nil, 0
	}
	q.busy = true
	if now := q.sch.Now(); now < q.outageUntil {
		q.sch.After(q.outageUntil-now, q.serveFn)
		return nil, 0
	}
	if q.rateScale > 0 {
		rate *= q.rateScale
	}
	if rate <= 0 {
		q.sch.After(time.Millisecond, q.serveFn)
		return nil, 0
	}
	p := q.ring.pop()
	q.queuedBytes -= p.Wire
	q.inflight = p
	return p, rate
}
