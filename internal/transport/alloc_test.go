package transport

import (
	"runtime"
	"testing"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/netsim"
	"fivegsim/internal/radio"
)

// TestBulkSteadyStateAllocs holds a warmed bulk flow to the hot-path
// budget: data segments and ACKs come from the path's packet pool and an
// ACK reports SACK blocks as a mark into the connection's SACK log, so
// one simulated second of a lossy cubic flow allocates next to nothing
// per ACK. The bound is not zero: the CwndTrace and RxRates series grow
// by append, and the SACK log, an interval set or a ring that meets a
// new high-water mark grows once more.
func TestBulkSteadyStateAllocs(t *testing.T) {
	sch := des.New()
	path := netsim.NewPath(sch, netsim.DefaultPath(radio.NR, true))
	conn := NewConn(sch, path, "cubic", Bulk)
	var acks int64
	onAck := path.ToServer
	path.ToServer = netsim.ReceiverFunc(func(p *netsim.Packet) {
		acks++
		onAck.Receive(p)
	})
	conn.Start()
	sch.RunUntil(4 * time.Second) // warm: slow start, the first loss episodes, every free list

	var runAcks int64
	allocs := testing.AllocsPerRun(1, func() {
		from := acks
		sch.RunUntil(sch.Now() + time.Second)
		runAcks = acks - from
	})
	if runAcks < 1000 {
		t.Fatalf("only %d ACKs in the measured second; the flow is not running", runAcks)
	}
	if conn.LossEvents == 0 {
		t.Fatal("no loss episodes: the SACK path went unexercised")
	}
	if perAck := allocs / float64(runAcks); perAck >= 0.01 {
		t.Fatalf("%.0f allocations over %d ACKs (%.3f per ACK), want < 0.01", allocs, runAcks, perAck)
	}
	// Every segment and ACK is released on delivery or drop, so the pool
	// stops growing once it covers the packets the path can hold: over a
	// further million checkouts, a leak of even one packet in a thousand
	// would show as a thousand fresh ones.
	pl := path.Pool
	gets, news := pl.Gets, pl.News
	for pl.Gets-gets < 1_000_000 && sch.Now() < 60*time.Second {
		sch.RunUntil(sch.Now() + 5*time.Second)
	}
	if pl.Gets-gets < 1_000_000 || pl.News-news > (pl.Gets-gets)/1000 {
		t.Fatalf("packet pool: %d fresh packets over %d checkouts (%d before them); a packet is not released",
			pl.News-news, pl.Gets-gets, news)
	}
}

// TestBulkFlowAllocBytes holds one whole lossy flow to a byte budget,
// growth phase included, which the warmed per-ACK guard above does not
// see: a fresh four-second bbr flow on the daytime 5G path, whose loss
// episodes keep hundreds of SACK blocks outstanding. With the map copied
// into every ACK the flow allocated 18.7 MB; with a mark into the SACK
// log it allocates about 3.5 MB.
func TestBulkFlowAllocBytes(t *testing.T) {
	const budgetMB = 6
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := RunBulk(netsim.DefaultPath(radio.NR, true), "bbr", 4*time.Second)
	runtime.ReadMemStats(&after)
	if r.LossEvents == 0 {
		t.Fatal("no loss episodes: the SACK path went unexercised")
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > budgetMB {
		t.Fatalf("a 4 s 5G bbr flow allocated %.1f MB, want at most %d MB", mb, budgetMB)
	}
}

var benchBulk BulkResult

// BenchmarkBulk times one two-second cubic bulk flow on the daytime 5G
// path, set-up included: the unit of work F7 and F8 repeat.
func BenchmarkBulk(b *testing.B) {
	cfg := netsim.DefaultPath(radio.NR, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchBulk = RunBulk(cfg, "cubic", 2*time.Second)
	}
}
