package netsim

import (
	"testing"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/radio"
)

// Saturator drives saturating CBR traffic over one long-lived path. Where
// RunUDP builds a fresh scheduler and path per call — thousands of
// allocations of hops, pools and rings that dominate short runs — a
// Saturator constructs them once and advances the same simulation in
// slices: in-flight packets, pool inventory and cross-traffic state carry
// over between slices, so every slice after the first measures the
// steady state, and on a warmed path a slice allocates nothing
// (TestSaturatorSliceAllocFree pins this). It is test-only: the engine
// under BenchmarkPathSaturate and the packet path's steady-state
// allocation guard.
type Saturator struct {
	sch      *des.Scheduler
	path     *Path
	offered  float64
	rttBase  time.Duration
	interval time.Duration

	seq, sent, received int64
	receivedBytes       int64

	tick    func()
	started bool
}

// NewSaturator builds the path for cfg and prepares a CBR source at
// offeredBps. Nothing runs until the first RunSlice.
func NewSaturator(cfg PathConfig, offeredBps float64) *Saturator {
	sch := des.New()
	s := &Saturator{
		sch:      sch,
		path:     NewPath(sch, cfg),
		offered:  offeredBps,
		rttBase:  cfg.BaseRTT(),
		interval: time.Duration(float64((MSS+HeaderBytes)*8) / offeredBps * float64(time.Second)),
	}
	s.path.ToUE = ReceiverFunc(func(p *Packet) {
		s.received++
		s.receivedBytes += int64(p.Len)
	})
	// Provision the packet pool and the scheduler's event free list past
	// their worst-case occupancy up front. Both are bounded — every hop
	// queue is byte-limited drop-tail and the cross-traffic rate is capped
	// — but the busy-period draws are heavy-tailed enough that the
	// high-water mark keeps inching up for simulated hours, and each new
	// record is an allocation in what must be an allocation-free steady
	// state (TestSaturatorSliceAllocFree). The bound: ≈3500 full-size
	// packets fill every buffer, plus the pump's one-tick backlog; events
	// track in-flight packets one-to-one plus the handful of sources.
	const prime = 8192
	pkts := make([]*Packet, prime)
	for i := range pkts {
		pkts[i] = s.path.Pool.Get()
	}
	for _, p := range pkts {
		s.path.Pool.Release(p)
	}
	for i := 0; i < prime; i++ {
		sch.After(0, func() {})
	}
	sch.RunUntil(0)
	// One self-perpetuating source event, bound once: each firing sends a
	// full MSS datagram and re-arms itself, exactly RunUDP's send loop.
	// The chain never stops — RunSlice bounds execution with the
	// scheduler deadline, leaving the next send queued for the following
	// slice.
	s.tick = func() {
		p := s.path.Pool.Get()
		p.FlowID, p.Seq, p.Len, p.Wire, p.SentAt = 1, s.seq, MSS, MSS+HeaderBytes, s.sch.Now()
		s.path.ServerIngress.Receive(p)
		s.seq++
		s.sent++
		s.sch.After(s.interval, s.tick)
	}
	return s
}

// RunSlice advances the simulation by d of saturating traffic and
// returns the delivery statistics of that slice alone (sent, received,
// loss and goodput are deltas over the slice). Packets in flight at the
// slice boundary carry over: they count as sent in this slice and as
// received in the one that drains them, which at saturation cancels out
// — the steady state RunUDP only approximates with its one-second drain
// tail.
func (s *Saturator) RunSlice(d time.Duration) UDPResult {
	if !s.started {
		s.started = true
		s.tick()
	}
	sent0, recv0, bytes0 := s.sent, s.received, s.receivedBytes
	s.sch.RunUntil(s.sch.Now() + d)
	res := UDPResult{
		OfferedBps: s.offered,
		RTTBase:    s.rttBase,
		Sent:       s.sent - sent0,
		Received:   s.received - recv0,
	}
	if res.Sent > 0 {
		res.LossRate = 1 - float64(res.Received)/float64(res.Sent)
	}
	res.DeliveredBps = float64((s.receivedBytes-bytes0)*8) / d.Seconds()
	return res
}

// Now returns the saturator's simulated clock (total time advanced).
func (s *Saturator) Now() time.Duration { return s.sch.Now() }

// TestSaturatorSteadyStateMatchesBaseline: after the first slice fills
// the pipe, every further slice delivers the saturated goodput — the
// figure UDPBaseline approximates with a fresh path and a drain tail.
func TestSaturatorSteadyStateMatchesBaseline(t *testing.T) {
	cfg := DefaultPath(radio.NR, true)
	base := UDPBaseline(cfg, 2*time.Second)
	s := NewSaturator(cfg, cfg.RANRateBps*1.2)
	s.RunSlice(time.Second) // pipe fill
	res := s.RunSlice(2 * time.Second)
	if res.DeliveredBps < base.DeliveredBps*0.95 || res.DeliveredBps > base.DeliveredBps*1.05 {
		t.Fatalf("steady-state slice %.1f Mb/s, baseline %.1f Mb/s (want within 5%%)",
			res.DeliveredBps/1e6, base.DeliveredBps/1e6)
	}
	if res.Sent == 0 || res.Received == 0 {
		t.Fatalf("slice moved no traffic: %+v", res)
	}
}

// TestSaturatorSliceAllocFree pins the steady-state allocation contract
// behind BenchmarkPathSaturate: once the pipe, pool, rings and
// event free list have reached their high-water marks, advancing the
// same simulation by another slice allocates nothing.
func TestSaturatorSliceAllocFree(t *testing.T) {
	cfg := DefaultPath(radio.NR, true)
	s := NewSaturator(cfg, cfg.RANRateBps*1.2)
	s.RunSlice(2 * time.Second) // warm: pool, rings, free list at capacity
	avg := testing.AllocsPerRun(10, func() { s.RunSlice(100 * time.Millisecond) })
	if avg != 0 {
		t.Fatalf("steady-state RunSlice allocates: %.2f allocs/run", avg)
	}
}

// TestSaturatorSliceStatsAreDeltas: statistics of one slice count that
// slice alone, and the simulated clock advances by exactly the slice
// width.
func TestSaturatorSliceStatsAreDeltas(t *testing.T) {
	cfg := DefaultPath(radio.NR, true)
	s := NewSaturator(cfg, cfg.RANRateBps*1.2)
	s.RunSlice(time.Second)
	a := s.RunSlice(time.Second)
	b := s.RunSlice(time.Second)
	if s.Now() != 3*time.Second {
		t.Fatalf("clock at %v after three 1 s slices", s.Now())
	}
	// At saturation consecutive slices are near-identical; a cumulative
	// (non-delta) implementation would double b relative to a.
	if b.Sent > a.Sent*3/2 || a.Sent > b.Sent*3/2 {
		t.Fatalf("slice stats not deltas: sent %d then %d", a.Sent, b.Sent)
	}
}

// BenchmarkPathSaturate measures the packet hot path end to end — pool
// checkout, four wired hops, cross traffic, HARQ, delivery, release — in
// steady state: one long-lived Saturator, warmed until the pipe is full,
// advanced one 100 ms slice of simulated time per op at 1.08× the radio
// goodput. It reads 0 allocs/op; TestSaturatorSliceAllocFree enforces
// that.
func BenchmarkPathSaturate(b *testing.B) {
	b.ReportAllocs()
	cfg := DefaultPath(radio.NR, true)
	s := NewSaturator(cfg, cfg.RANRateBps*1.08)
	s.RunSlice(2 * time.Second) // pipe fill: every further slice is steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.RunSlice(100 * time.Millisecond)
		if res.Received == 0 {
			b.Fatal("no packets delivered")
		}
	}
}
