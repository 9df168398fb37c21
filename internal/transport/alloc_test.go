package transport

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"fivegsim/internal/des"
	"fivegsim/internal/netsim"
	"fivegsim/internal/obs"
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

// raceEnabled is set by race_test.go when the race detector instruments
// the build.
var raceEnabled bool

// TestBulkFlowAllocBytes holds one whole lossy flow to a byte budget,
// growth phase included, which the warmed per-ACK guard above does not
// see: a fresh four-second bbr flow on the daytime 5G path, whose loss
// episodes leave thousands of segments waiting above a hole. Two
// collections first empty netsim's cache of packet slabs, so the flow
// starts cold. It allocates 0.71 MB, and 0.73 MB under the race
// detector. The budget fails a SACK log that keeps one entry per
// out-of-order segment: 1.82 MB with 16-byte entries and no packet
// slabs, 2.30 MB with slabs and runs that never extend.
func TestBulkFlowAllocBytes(t *testing.T) {
	const budgetMB = 1.0
	runtime.GC()
	mb, r := bulkFlowAllocMB()
	if r.LossEvents == 0 {
		t.Fatal("no loss episodes: the SACK path went unexercised")
	}
	t.Logf("a cold 4 s 5G bbr flow allocated %.2f MB", mb)
	if mb > budgetMB {
		t.Fatalf("a cold 4 s 5G bbr flow allocated %.2f MB, want at most %.1f MB", mb, budgetMB)
	}
}

// TestBulkFlowReusesPathStorage runs the same flow twice back to back:
// the first flow's path hands on its packet slabs, generators, scheduler
// heap and SACK storage when RunBulk returns, so the second grows almost
// nothing and allocates a small fraction of the first: 0.015 MB, where
// it read 0.14 MB when only the slabs were handed on. A sync.Pool keeps
// one cached item in a slot of the P that put it, and the collection
// between the flows may move the goroutine to another P, so the test
// runs on one P. The race detector's sync.Pool drops a random share of
// what it is given, so the bound holds only without it.
func TestBulkFlowReusesPathStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops storage at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const budgetMB = 0.05
	runtime.GC()
	first, _ := bulkFlowAllocMB()
	second, _ := bulkFlowAllocMB()
	t.Logf("two 4 s 5G bbr flows back to back allocated %.3f and %.3f MB", first, second)
	if second >= budgetMB {
		t.Fatalf("the second of two 4 s 5G bbr flows allocated %.3f MB, want under %.2f MB", second, budgetMB)
	}
}

// bulkFlowAllocMB runs a four-second bbr flow on the daytime 5G path and
// returns the megabytes it allocated.
func bulkFlowAllocMB() (float64, BulkResult) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := RunBulk(netsim.DefaultPath(radio.NR, true), "bbr", 4*time.Second)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6, r
}

// TestDelayLinesBoundHeap: a packet on a propagation leg waits in its
// hop's delay line, and only each line's head is in the scheduler's
// heap, so the heap's high-water mark stays near one entry per leg
// however many packets are in flight. With one heap event per packet in
// flight it read 1,308 on a 2 s 5G UDP baseline and 4,260 on a 4 s 4G
// cubic flow. The link that threads a packet through the lines keeps a
// packet at 88 bytes, all of which it costs: packets are carved from
// slabs, with no size-class rounding.
func TestDelayLinesBoundHeap(t *testing.T) {
	const maxDepth = 256
	if size := unsafe.Sizeof(netsim.Packet{}); size > 88 {
		t.Errorf("netsim.Packet is %d bytes, want at most 88", size)
	}
	udpCfg := netsim.DefaultPath(radio.NR, true)
	udpCfg.Obs = obs.NewRegistry()
	netsim.UDPBaseline(udpCfg, 2*time.Second)
	bulkCfg := netsim.DefaultPath(radio.LTE, true)
	bulkCfg.Obs = obs.NewRegistry()
	RunBulk(bulkCfg, "cubic", 4*time.Second)
	udp := udpCfg.Obs.Gauge("des.queue_depth").Max()
	bulk := bulkCfg.Obs.Gauge("des.queue_depth").Max()
	t.Logf("des.queue_depth high-water: %d (5G UDP baseline), %d (4G cubic flow)", udp, bulk)
	if udp > maxDepth || bulk > maxDepth {
		t.Fatalf("des.queue_depth high-water %d (5G UDP baseline) and %d (4G cubic flow), want at most %d",
			udp, bulk, maxDepth)
	}
}

var benchBulk BulkResult

// BenchmarkBulk times one two-second cubic bulk flow on the daytime 5G
// path, set-up included: the unit of work F7 and F8 repeat.
func BenchmarkBulk(b *testing.B) { benchBulkFlows(b, nil) }

// BenchmarkBulkTraced is BenchmarkBulk with a registry attached, as
// under fgbench -results: the hops, the scheduler and the connection
// count in plain fields and publish once per flow, so it differs from
// BenchmarkBulk by the occupancy, cwnd and RTT histograms.
func BenchmarkBulkTraced(b *testing.B) { benchBulkFlows(b, obs.NewRegistry()) }

func benchBulkFlows(b *testing.B, reg *obs.Registry) {
	cfg := netsim.DefaultPath(radio.NR, true)
	cfg.Obs = reg
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchBulk = RunBulk(cfg, "cubic", 2*time.Second)
	}
}
