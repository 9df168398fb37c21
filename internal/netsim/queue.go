package netsim

import (
	"math/rand"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/obs"
)

// queue is the store-and-forward core that Hop and RANHop embed: a
// drop-tail FIFO buffer in front of a one-packet serializer slot, the
// fault hooks that act on them, the drop path and the per-hop counts.
// The embedding type supplies the two steps in which the hops differ:
// serve (how long the head packet holds the serializer, built on head)
// and txDone (when, and whether, the sent packet is delivered).
//
// A sent packet waits out its propagation delay in the hop's delay line,
// a FIFO of the packets sent and not yet delivered. Each keeps the place
// in the scheduler's firing order that its own delivery event would have
// taken (des.Scheduler.Reserve), and only the line's head is in the
// scheduler's heap: the heap holds one entry per busy leg, not one per
// packet in flight, and deliveries fire in exactly the order one event
// per packet would give.
//
// The per-packet path is allocation-free: the buffer and the delay line
// are lists linked through the packets themselves, the serializer holds
// its packet in a struct slot, and no scheduler callback is built per
// packet.
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

	buf         pktList
	queuedBytes int
	busy        bool

	// inflight is the packet occupying the serializer; the pre-bound
	// callbacks below are what keep the hot path closure-free.
	inflight  *Packet
	serveFn   func()
	txDoneFn  func()
	deliverFn func(any)

	// line is the delay line: sent packets in delivery order, each
	// holding its reserved key. Its head's key is in the scheduler.
	line pktList

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

	// OnDrop, if set, observes every dropped packet, overflows and
	// injected losses alike (before any pool release — the packet is
	// still intact inside the callback).
	OnDrop func(p *Packet)

	// Packets enqueued, dropped and delivered, and bytes delivered;
	// publish adds them to a registry when the path closes.
	enqueued, dropped, delivered, deliveredBytes int64

	occ *obs.Histogram // nil = off; attached by SetObs
}

// newQueue returns the core of a hop that delivers to next. The caller
// binds serveFn and txDoneFn to its own steps.
func newQueue(sch *des.Scheduler, name string, rateBps float64, prop time.Duration, limitBytes, relief int, next Receiver) queue {
	return queue{
		Name: name, sch: sch, rateBps: rateBps, prop: prop, limit: limitBytes, relief: relief,
		deliverFn: func(a any) { next.Receive(a.(*Packet)) },
	}
}

// pktList is a FIFO of packets linked through Packet.next: a hop's
// buffer and its delay line. A packet is in at most one list at a time,
// so neither needs storage of its own.
type pktList struct {
	head, tail *Packet
}

// push appends p and reports whether the list was empty.
func (l *pktList) push(p *Packet) (wasEmpty bool) {
	p.next = nil
	if l.tail == nil {
		l.head, l.tail = p, p
		return true
	}
	l.tail.next = p
	l.tail = p
	return false
}

// pop removes and returns the head; the list must not be empty.
func (l *pktList) pop() *Packet {
	p := l.head
	l.head = p.next
	if l.head == nil {
		l.tail = nil
	}
	return p
}

// SetObs attaches the buffer-occupancy histogram
// `netsim.occupancy_bytes{hop=Name}`, sampled at each enqueue, in which
// overflow episodes show. A nil registry attaches nothing.
func (q *queue) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	q.occ = reg.Histogram("netsim.occupancy_bytes{hop="+q.Name+"}", obs.ByteBuckets)
}

// publish adds the hop's counts to reg's `netsim.*{hop=Name}` counters:
// packets enqueued, dropped and delivered, and bytes delivered.
func (q *queue) publish(reg *obs.Registry) {
	label := "{hop=" + q.Name + "}"
	reg.Counter("netsim.pkt_enqueued" + label).Add(q.enqueued)
	reg.Counter("netsim.pkt_dropped" + label).Add(q.dropped)
	reg.Counter("netsim.pkt_delivered" + label).Add(q.delivered)
	reg.Counter("netsim.bytes_delivered" + label).Add(q.deliveredBytes)
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
// regular drop count.
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
	q.buf.push(p)
	q.queuedBytes += p.Wire
	q.enqueued++
	q.occ.Observe(float64(q.queuedBytes))
	if !q.busy {
		q.serveFn()
	}
}

// drop counts one dropped packet, then recycles it if pool-owned.
func (q *queue) drop(p *Packet) {
	q.dropped++
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
	if q.buf.head == nil {
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
	p := q.buf.pop()
	q.queuedBytes -= p.Wire
	q.inflight = p
	return p, rate
}

// propagate counts p as delivered and sends it down the delay line to
// be delivered at at. A delivery due before the line's tail (a wired
// hop's latency burst has just ended) would break the line's order, so
// it is scheduled on its own.
func (q *queue) propagate(p *Packet, at time.Duration) {
	q.delivered++
	q.deliveredBytes += int64(p.Wire)
	if t := q.line.tail; t != nil && at < t.key.At {
		q.sch.AtArg(at, q.deliverFn, p)
		return
	}
	p.key = q.sch.Reserve(at)
	if q.line.push(p) {
		q.sch.AtKey(p.key, arrive, q)
	}
}

// arrive is the event of a delay line's head: it delivers the head of
// q's line (q is a *queue), after handing the next head's key to the
// scheduler.
func arrive(a any) {
	q := a.(*queue)
	p := q.line.pop()
	if h := q.line.head; h != nil {
		q.sch.AtKey(h.key, arrive, q)
	}
	q.deliverFn(p)
}
