package transport

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/netsim"
	"fivegsim/internal/radio"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/bulk_v1.golden")

// bulkHash digests everything a bulk run reports, bit for bit: the
// Float64bits of the throughput, the loss counters, the smoothed RTT and
// every cwnd and receiver-rate sample.
type bulkHash struct{ buf []byte }

func (b *bulkHash) put(v uint64) { b.buf = binary.LittleEndian.AppendUint64(b.buf, v) }

func (b *bulkHash) sum() string { return fmt.Sprintf("%x", sha256.Sum256(b.buf)) }

func (b *bulkHash) traces(cwnd []CwndSample, rx []RateSample) {
	b.put(uint64(len(cwnd)))
	for _, s := range cwnd {
		b.put(uint64(s.At))
		b.put(uint64(s.Cwnd))
		b.put(uint64(s.Retransmits))
	}
	b.put(uint64(len(rx)))
	for _, s := range rx {
		b.put(uint64(s.At))
		b.put(math.Float64bits(s.Bps))
	}
}

func hashBulk(r BulkResult) string {
	var b bulkHash
	b.put(math.Float64bits(r.ThroughputBps))
	b.put(uint64(r.Retransmits))
	b.put(uint64(r.RTOs))
	b.put(uint64(r.LossEvents))
	b.put(uint64(r.MeanRTT))
	b.traces(r.CwndTrace, r.RxRates)
	return b.sum()
}

// goldenBulkDur is long enough for slow start, the first loss episodes
// and their recovery on both technologies, and short enough to keep the
// whole golden sweep near ten seconds.
const goldenBulkDur = 1500 * time.Millisecond

// ackFaults is the golden's uplink fault schedule. Every 100 ms the
// UE's uplink radio hop holds ACKs an extra 20 ms for 40 ms, so the ACKs
// sent after each window overtake the ones sent inside it, and then for
// 20 ms it drops a quarter of them.
func ackFaults(sch *des.Scheduler, p *netsim.Path) {
	drop := rand.New(rand.NewSource(1))
	for t := 100 * time.Millisecond; t < goldenBulkDur; t += 100 * time.Millisecond {
		sch.At(t, func() { p.UplinkRAN.SetExtraProp(20 * time.Millisecond) })
		sch.At(t+40*time.Millisecond, func() { p.UplinkRAN.SetExtraProp(0) })
		sch.At(t+50*time.Millisecond, func() { p.UplinkRAN.SetInjectLoss(0.25, drop) })
		sch.At(t+70*time.Millisecond, func() { p.UplinkRAN.SetInjectLoss(0, nil) })
	}
}

// ackFaultPath is the seed-42 daytime path of tech under ackFaults.
func ackFaultPath(tech radio.Tech) netsim.PathConfig {
	cfg := netsim.DefaultPath(tech, true)
	cfg.Seed = 42
	cfg.Inject = ackFaults
	return cfg
}

// TestBulkGolden pins the transport layer's output bit for bit: every
// controller on both technologies over seeds 1/42/7, one sized transfer,
// one MPTCP pair, one forced burst-loss run whose recovery needs both
// SACK repair and a retransmission timeout, and cubic and bbr on both
// technologies with reordered and dropped ACKs (ackFaults). The
// benchmark digests cover F7–F11 only; this golden is what holds the
// other experiments that run TCP (F12, F16, F17, X2, X7–X10) to the same
// packet-level behaviour.
func TestBulkGolden(t *testing.T) {
	var got bytes.Buffer
	for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
		for _, seed := range []int64{1, 42, 7} {
			cfg := netsim.DefaultPath(tech, true)
			cfg.Seed = seed
			for _, name := range []string{"reno", "cubic", "vegas", "veno", "bbr"} {
				r := RunBulk(cfg, name, goldenBulkDur)
				fmt.Fprintf(&got, "bulk %s %s seed=%d retx=%d rtos=%d losses=%d %s\n",
					tech, name, seed, r.Retransmits, r.RTOs, r.LossEvents, hashBulk(r))
			}
		}
	}

	lte := netsim.DefaultPath(radio.LTE, true)
	lte.Seed = 42
	done, ok := RunTransfer(lte, "cubic", 2<<20, 10*time.Second)
	fmt.Fprintf(&got, "transfer LTE cubic 2MiB ok=%t done=%d\n", ok, done)

	nr := netsim.DefaultPath(radio.NR, true)
	nr.Seed = 7
	m := RunMPTCPBulk([]netsim.PathConfig{nr, lte}, "cubic", time.Second)
	var mb bulkHash
	mb.put(math.Float64bits(m.TotalBps))
	for _, bps := range m.PerPathBps {
		mb.put(math.Float64bits(bps))
	}
	mb.put(math.Float64bits(m.AggregationEfficiency))
	fmt.Fprintf(&got, "mptcp NR+LTE cubic %s\n", mb.sum())

	// Half the buffer of TestSACKRecoveryUnderForcedBurstLoss: one repair
	// is itself lost deeply enough to need the retransmission timer.
	conn, doneAt := runBurstLoss(20_000)
	if conn.LossEvents == 0 || conn.Retransmits == 0 {
		t.Errorf("burst-loss run never entered SACK recovery (losses %d, retx %d)", conn.LossEvents, conn.Retransmits)
	}
	if conn.RTOs == 0 {
		t.Error("burst-loss run never fired a retransmission timeout")
	}
	if doneAt == 0 {
		t.Error("burst-loss transfer did not complete")
	}
	var bb bulkHash
	bb.put(uint64(conn.DeliveredBytes))
	bb.put(uint64(conn.Retransmits))
	bb.put(uint64(conn.RTOs))
	bb.put(uint64(conn.LossEvents))
	bb.put(uint64(conn.SRTT()))
	bb.put(uint64(doneAt))
	bb.traces(conn.CwndTrace, conn.RxRates())
	fmt.Fprintf(&got, "burst NR cubic 4MiB retx=%d rtos=%d losses=%d done=%d %s\n",
		conn.Retransmits, conn.RTOs, conn.LossEvents, doneAt, bb.sum())

	for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
		for _, name := range []string{"cubic", "bbr"} {
			r := RunBulk(ackFaultPath(tech), name, goldenBulkDur)
			fmt.Fprintf(&got, "ackfault %s %s seed=42 retx=%d rtos=%d losses=%d %s\n",
				tech, name, r.Retransmits, r.RTOs, r.LossEvents, hashBulk(r))
		}
	}

	path := filepath.Join("testdata", "bulk_v1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run BulkGolden -update` to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("transport output drifted from %s:\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

// TestAckFaultsReorderAndDrop shows that the golden's ackfault rows take
// the paths they are there to pin: under ackFaults the sender sees SACK
// ACKs whose mark is below one it has already seen (the SACK log's
// reordered-ACK path) and the uplink drops SACK ACKs.
func TestAckFaultsReorderAndDrop(t *testing.T) {
	for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
		for _, name := range []string{"cubic", "bbr"} {
			sch := des.New()
			path := netsim.NewPath(sch, ackFaultPath(tech))
			conn := NewConn(sch, path, name, Bulk)
			var maxMark int64
			reordered, dropped := 0, 0
			onAck := path.ToServer
			path.ToServer = netsim.ReceiverFunc(func(p *netsim.Packet) {
				if p.SackMark != 0 && p.SackMark < maxMark {
					reordered++
				}
				maxMark = max(maxMark, p.SackMark)
				onAck.Receive(p)
			})
			path.UplinkRAN.OnDrop = func(p *netsim.Packet) {
				if p.SackMark != 0 {
					dropped++
				}
			}
			conn.Start()
			sch.RunUntil(goldenBulkDur)
			t.Logf("%s %s: %d reordered and %d dropped SACK ACKs", tech, name, reordered, dropped)
			if reordered == 0 || dropped == 0 {
				t.Errorf("%s %s: %d reordered and %d dropped SACK ACKs, want both > 0", tech, name, reordered, dropped)
			}
		}
	}
}
