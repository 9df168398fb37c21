// Package des implements a deterministic discrete-event scheduler.
//
// All simulations in fivegsim run on simulated time. Events are ordered by
// (time, sequence) so that two events scheduled for the same instant fire in
// scheduling order, which keeps runs reproducible.
//
// The queue is a 4-ary min-heap of event values keyed inline on
// (at, seq): a sift compares keys without loading through a pointer, and
// once the heap slice has grown to a run's peak depth, scheduling and
// firing allocate nothing. Because (at, seq) is a total order, any
// min-heap pops events in exactly the same sequence, so the firing order
// and every simulation output are independent of the heap's layout.
//
// A client that keeps its own queue of events already in (at, seq)
// order, such as a hop's delay line (internal/netsim), takes each
// event's place in that order with Reserve when it would have scheduled
// it, and hands the scheduler only its queue's head with AtKey. The heap
// then holds one entry per such queue, not one per queued event, and
// the firing order is the one the events would have had in the heap.
//
// A scheduler that will not run again hands its heap on with Release:
// the next New, on any goroutine, starts from that heap instead of
// growing its own. The heap comes back cleared, and since any min-heap
// pops the same sequence, a scheduler that starts with spare capacity
// fires exactly what a fresh one would.
//
// A scheduler runs on one goroutine and counts in plain fields: the
// events scheduled and fired and the heap's high-water mark. Release
// publishes them, once, to the obs.Registry it is given, under the
// `des.*` metric namespace; a nil registry publishes nothing.
//
// Events cannot be canceled. A client whose deadline moves keeps the
// deadline itself and lets a check event that finds it moved return
// without acting (TCP's retransmission timer does this).
package des

import (
	"sync"
	"time"

	"fivegsim/internal/obs"
)

// event is one scheduled callback, stored by value in the heap. At and
// After carry their func() as the arg of callFunc, so every event calls
// fn(arg).
type event struct {
	at  time.Duration
	seq uint64
	fn  func(any)
	arg any
}

// callFunc runs a func() scheduled by At or After. A func value is
// pointer-shaped, so boxing it in an interface allocates nothing.
func callFunc(f any) { f.(func())() }

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; simulations are written in the callback style.
type Scheduler struct {
	now   time.Duration
	seq   uint64  // events scheduled, each reserved key included
	fired uint64  // events fired
	peak  int     // the heap's high-water mark
	queue []event // 4-ary min-heap on (at, seq)
	// heap is the box queue came in from heaps, if it did, and goes back
	// in, so a warm Release allocates nothing.
	heap     *[]event
	stopped  bool
	released bool
}

// heaps holds the heaps of released schedulers, each cleared to its
// capacity, for New to start from.
var heaps sync.Pool

// New returns a scheduler with the clock at zero. Its heap is one a
// released scheduler handed on, when one is cached.
func New() *Scheduler {
	s := &Scheduler{}
	if q, _ := heaps.Get().(*[]event); q != nil {
		s.queue, s.heap = *q, q
	}
	return s
}

// Release ends the scheduler. Call it once the scheduler will not run
// again: it drops every pending event. Unless reg is nil it first adds
// the scheduler's counts to reg: `des.events_scheduled` and
// `des.events_fired`; `des.queue_depth`, whose level is the heap length
// now and whose high-water mark is the heap's; and `des.sim_time_ns`,
// the clock. Then it hands the heap to the next New, on any goroutine,
// with every slot up to its capacity cleared, so a cached heap pins no
// callback or payload of the released run. Releasing again does
// nothing, so paths that share a scheduler publish it once.
func (s *Scheduler) Release(reg *obs.Registry) {
	if s.released {
		return
	}
	s.released = true
	if reg != nil {
		reg.Counter("des.events_scheduled").Add(int64(s.seq))
		reg.Counter(obs.MetricEventsFired).Add(int64(s.fired))
		depth := reg.Gauge("des.queue_depth")
		depth.Set(int64(s.peak)) // raises the high-water mark
		depth.Set(int64(len(s.queue)))
		reg.Gauge(obs.MetricSimTime).Set(int64(s.now))
	}
	if cap(s.queue) == 0 {
		return
	}
	q := s.queue[:0]
	clear(q[:cap(q)])
	if s.heap == nil {
		s.heap = new([]event)
	}
	*s.heap = q
	heaps.Put(s.heap)
	s.queue, s.heap = nil, nil
}

// Key is an event's place in the firing order: its time and the
// sequence number that breaks ties at that time.
type Key struct {
	At  time.Duration
	seq uint64
}

// Now returns the current simulated time.
func (s *Scheduler) Now() time.Duration { return s.now }

// At schedules fn to run at the absolute simulated time at. Times in the
// past are clamped to the present.
func (s *Scheduler) At(at time.Duration, fn func()) { s.AtArg(at, callFunc, fn) }

// AtArg schedules fn(arg) at the absolute simulated time at. It exists
// for hot paths that would otherwise allocate one closure per event: a
// pre-bound fn plus a pointer-shaped arg (e.g. *netsim.Packet) schedules
// with zero heap allocations in steady state.
func (s *Scheduler) AtArg(at time.Duration, fn func(any), arg any) {
	s.AtKey(s.Reserve(at), fn, arg)
}

// Reserve takes the place in the firing order that an event scheduled
// now for at would take, clamping at to the present, and counts it as
// scheduled. Nothing fires until the key is passed to AtKey.
func (s *Scheduler) Reserve(at time.Duration) Key {
	if at < s.now {
		at = s.now
	}
	s.seq++
	return Key{At: at, seq: s.seq}
}

// AtKey schedules fn(arg) in the place k reserved. A key whose time has
// already passed fires at the present, so the clock never runs
// backwards; it still fires ahead of every event at the present that
// was scheduled after k was reserved.
func (s *Scheduler) AtKey(k Key, fn func(any), arg any) {
	if k.At < s.now {
		k.At = s.now
	}
	s.queue = append(s.queue, event{at: k.At, seq: k.seq, fn: fn, arg: arg})
	n := len(s.queue)
	s.siftUp(n - 1)
	if n > s.peak {
		s.peak = n
	}
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d time.Duration, fn func()) { s.AfterArg(d, callFunc, fn) }

// AfterArg schedules fn(arg) to run d after the current time.
func (s *Scheduler) AfterArg(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	s.AtArg(s.now+d, fn, arg)
}

// Stop halts Run/RunUntil after the current event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// step executes the next event. It reports false when the queue is empty
// or, if bounded, when the next event is due after limit.
func (s *Scheduler) step(limit time.Duration, bounded bool) bool {
	q := s.queue
	if len(q) == 0 || bounded && q[0].at > limit {
		return false
	}
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // the vacated slot must not pin a callback or payload
	s.queue = q[:n]
	if n > 1 {
		s.siftDown(0)
	}
	s.now = ev.at
	s.fired++
	ev.fn(ev.arg)
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.step(0, false) {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline. Events scheduled beyond the deadline remain queued.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.stopped = false
	for !s.stopped && s.step(deadline, true) {
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// ---- inlined 4-ary min-heap on (at, seq) ----
//
// A 4-ary heap halves the tree depth of the binary heap, cutting the
// sift-up comparisons on the push-heavy workload of a packet simulation.
// before is the only ordering used anywhere, and it is a strict total
// order (seq is unique), so pop order — and thus simulation output — does
// not depend on the internal array layout.

func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Scheduler) siftUp(i int) {
	q := s.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !before(&ev, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

func (s *Scheduler) siftDown(i int) {
	q := s.queue
	n := len(q)
	ev := q[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		// Smallest of up to four children.
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if before(&q[c], &q[min]) {
				min = c
			}
		}
		if !before(&q[min], &ev) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = ev
}
