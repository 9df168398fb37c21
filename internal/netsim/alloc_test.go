package netsim

import (
	"reflect"
	"slices"
	"sync"
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
			p.Seq, p.Len, p.Wire = int64(i), MSS, MSS+HeaderBytes
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
	drops := countDrops(&hop.queue)

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
	if *drops == 0 {
		t.Fatal("test never exercised the drop path")
	}
}

// TestClosedPathSlabsComeBackZeroed: a closed path hands its packet
// slabs on to the next pool, whose Get must still hand out zeroed
// packets however the slabs were left. The test fills the slabs of a
// loaded path with garbage after closing it, as a caller that broke
// Close's contract would, then checks out a new pool's packets.
func TestClosedPathSlabsComeBackZeroed(t *testing.T) {
	sch := des.New()
	path := NewPath(sch, DefaultPath(radio.NR, true))
	path.StartCBR(2e9, 100*time.Millisecond)
	sch.RunUntil(100 * time.Millisecond)
	closed := slices.Clone(path.Pool.slabs)
	if len(closed) < 2 {
		t.Fatalf("the path carved %d slabs, want a load that fills several", len(closed))
	}
	path.Close()
	junk := &Packet{}
	for _, s := range closed {
		for i := range s {
			s[i] = Packet{Seq: -1, Len: -1, AckSeq: -1, SackMark: -1, Wire: -1, SentAt: -1, EchoTS: -1,
				Ack: true, Background: true, Retransmit: true, next: junk, key: des.Key{At: -1}}
		}
	}

	pool := NewPacketPool()
	for i := 0; i < len(closed)*slabPackets; i++ {
		if p := pool.Get(); *p != (Packet{pooled: true}) {
			t.Fatalf("checkout %d of a new pool: %+v, want a zeroed packet", i, *p)
		}
	}
	reused := 0
	for _, s := range pool.slabs {
		if slices.Contains(closed, s) {
			reused++
		}
	}
	t.Logf("the new pool carved %d packets from %d slabs, %d of them the closed path's", pool.News, len(pool.slabs), reused)
	if reused == 0 {
		t.Fatalf("none of the new pool's %d slabs came from the %d the closed path handed on", len(pool.slabs), len(closed))
	}
}

// TestSlabCacheSharedAcrossGoroutines: closed paths hand their slabs to
// paths on other goroutines, as par's workers and fgserve's pool do.
// Runs that reuse one another's slabs, concurrently, report exactly what
// a run on its own reports; under -race this also checks that a slab
// moves between goroutines only through the cache.
func TestSlabCacheSharedAcrossGoroutines(t *testing.T) {
	const workers, runs = 4, 3
	cfg := DefaultPath(radio.NR, true)
	want := RunUDP(cfg, 1.2e9, 50*time.Millisecond)
	var wg sync.WaitGroup
	got := make([][]UDPResult, workers)
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				got[w] = append(got[w], RunUDP(cfg, 1.2e9, 50*time.Millisecond))
			}
		}(w)
	}
	wg.Wait()
	for w, rs := range got {
		for i, r := range rs {
			if !reflect.DeepEqual(r, want) {
				t.Errorf("worker %d run %d: %+v, want %+v", w, i, r, want)
			}
		}
	}
}
