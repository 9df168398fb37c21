package netsim

import (
	"testing"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/radio"
	"fivegsim/internal/rng"
)

// The per-packet hot path — pool checkout, hop enqueue, serialization,
// propagation, HARQ, delivery, pool release — must be allocation-free in
// steady state with observability off. A warm-up pass grows the packet
// pool and the scheduler's heap slice to their high-water marks; after
// that, moving a packet end to end allocates nothing.

func TestPacketPathSteadyStateAllocFree(t *testing.T) {
	sch := des.New()
	pool := NewPacketPool()
	var delivered int64
	sink := ReceiverFunc(func(p *Packet) {
		delivered++
		pool.Release(p)
	})
	ran := NewRANHop(sch, radio.NR, 1e9, time.Millisecond, 1<<24, rng.New(1).Stream("harq"), sink)
	wired := NewHop(sch, "wired", 1e9, time.Millisecond, 1<<24, ran)
	wired.SetPool(pool)
	ran.SetPool(pool)

	send := func(n int) {
		for i := 0; i < n; i++ {
			p := pool.Get()
			p.FlowID, p.Seq, p.Len, p.Wire = 1, int64(i), MSS, MSS+HeaderBytes
			p.SentAt = sch.Now()
			wired.Receive(p)
		}
		sch.Run()
	}
	send(256) // warm: pool and event heap reach capacity

	before := delivered
	avg := testing.AllocsPerRun(20, func() { send(64) })
	if avg != 0 {
		t.Fatalf("steady-state packet path allocates: %.2f allocs/run", avg)
	}
	if got := delivered - before; got < 21*64 {
		t.Fatalf("deliveries missing: got %d, want at least %d", got, 21*64)
	}
	if pool.News > 512 {
		t.Fatalf("pool kept allocating: %d fresh packets for %d checkouts", pool.News, pool.Gets)
	}
}

// Dropped packets must also recycle without allocating: a saturated
// drop-tail hop in lockout exercises the drop path on every arrival.
func TestDropPathSteadyStateAllocFree(t *testing.T) {
	sch := des.New()
	pool := NewPacketPool()
	sink := ReceiverFunc(func(p *Packet) { pool.Release(p) })
	hop := NewHop(sch, "tight", 1e3, time.Second, 4*(MSS+HeaderBytes), sink)
	hop.SetPool(pool)

	send := func(n int) {
		for i := 0; i < n; i++ {
			p := pool.Get()
			p.Wire = MSS + HeaderBytes
			hop.Receive(p)
		}
	}
	send(64) // warm; the 1 kb/s drain keeps the buffer full for the whole test

	if avg := testing.AllocsPerRun(20, func() { send(16) }); avg != 0 {
		t.Fatalf("drop path allocates: %.2f allocs/run", avg)
	}
	if hop.Dropped == 0 {
		t.Fatal("test never exercised the drop path")
	}
}
