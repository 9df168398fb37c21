package netsim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/obs"
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

// TestPathClosesOnce: a second Close publishes nothing and hands
// nothing on, so no count of a closed path reaches its registry twice
// and no generator or connection storage reaches two later paths. Had
// the second Close released the path's generators again, the next
// Stream calls would hand each of them out twice.
func TestPathClosesOnce(t *testing.T) {
	sch := des.New()
	cfg := DefaultPath(radio.NR, true)
	cfg.Obs = obs.NewRegistry()
	path := NewPath(sch, cfg)
	closes := 0
	path.OnClose(func() { closes++ })
	path.StartCBR(1e9, 20*time.Millisecond)
	sch.RunUntil(50 * time.Millisecond)
	path.Close()
	for _, name := range []string{"netsim.pkt_enqueued{hop=5G-RAN}", "netsim.pkt_delivered{hop=core}",
		"netsim.bytes_delivered{hop=bottleneck}", "netsim.harq_retx{hop=5G-RAN}", "netsim.flow_bytes{flow=1}"} {
		if cfg.Obs.Counter(name).Value() == 0 {
			t.Errorf("%s = 0 after a loaded path closed, want its count", name)
		}
	}
	once := cfg.Obs.Snapshot()
	path.Close()
	if closes != 1 {
		t.Fatalf("OnClose functions ran %d times over two Closes, want once", closes)
	}
	if twice := cfg.Obs.Snapshot(); !reflect.DeepEqual(twice, once) {
		t.Fatalf("a second Close changed the published metrics:\nonce:  %v\ntwice: %v", once, twice)
	}
	src := rng.New(1)
	seen := map[*rand.Rand]bool{}
	for i := 0; i < 4; i++ {
		r := src.Stream("s")
		if seen[r] {
			t.Fatalf("Stream handed out one generator twice after a path was closed twice")
		}
		seen[r] = true
	}
}

// raceEnabled is set by race_test.go when the race detector instruments
// the build.
var raceEnabled bool

// TestUntracedPathAllocs: a path without a registry builds no metric
// name and publishes nothing, so an untraced NewPath, a millisecond of
// cross traffic and Close allocate at most 40 times.
func TestUntracedPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a share of the heaps and generators it is given")
	}
	cfg := DefaultPath(radio.NR, true)
	cycle := func() {
		sch := des.New()
		p := NewPath(sch, cfg)
		sch.RunUntil(time.Millisecond)
		p.Close()
	}
	cycle()
	avg := testing.AllocsPerRun(100, cycle)
	t.Logf("an untraced NewPath, 1 ms of cross traffic and Close: %v allocations", avg)
	if avg > 40 {
		t.Fatalf("an untraced NewPath, 1 ms of cross traffic and Close allocate %v times, want at most 40", avg)
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
