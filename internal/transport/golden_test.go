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
	"strings"
	"testing"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/fault"
	"fivegsim/internal/netsim"
	"fivegsim/internal/obs"
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

// faultPlans holds one plan per fault.Kind, indexed by kind, each
// window inside goldenBulkDur. Armed through fault.Hook, they reach every
// hop fault hook the experiments use: the RAN's outage, rate scale and
// rate change, and the bottleneck's rate scale, injected loss and extra
// delay.
var faultPlans = []*fault.Plan{
	fault.Outage("link-outage", 500*time.Millisecond, 150*time.Millisecond),
	{Name: "loss-burst", Faults: []fault.Fault{{Kind: fault.LossBurst, At: 400 * time.Millisecond, Dur: 300 * time.Millisecond, LossRate: 0.02}}},
	{Name: "latency-burst", Faults: []fault.Fault{{Kind: fault.LatencyBurst, At: 400 * time.Millisecond, Dur: 300 * time.Millisecond, Extra: 20 * time.Millisecond}}},
	{Name: "wired-degrade", Faults: []fault.Fault{{Kind: fault.WiredDegrade, At: 400 * time.Millisecond, Dur: 500 * time.Millisecond, Scale: 0.5}}},
	{Name: "radio-degrade", Faults: []fault.Fault{{Kind: fault.RadioDegrade, At: 400 * time.Millisecond, Dur: 500 * time.Millisecond, Scale: 0.3}}},
	{Name: "cell-failure", Faults: []fault.Fault{{Kind: fault.CellFailure, At: 300 * time.Millisecond, Dur: 700 * time.Millisecond}}},
}

// faultPath is the seed-42 daytime 5G path with plan armed.
func faultPath(plan *fault.Plan) netsim.PathConfig {
	cfg := netsim.DefaultPath(radio.NR, true)
	cfg.Seed = 42
	cfg.Inject = fault.Hook(plan)
	return cfg
}

// TestBulkGolden pins the transport layer's output bit for bit: every
// controller on both technologies over seeds 1/42/7, one sized transfer,
// one MPTCP pair, one forced burst-loss run whose recovery needs both
// SACK repair and a retransmission timeout, and cubic and bbr on both
// technologies with reordered and dropped ACKs (ackFaults), and cubic and
// bbr on 5G under each of faultPlans. The benchmark digests cover F7–F11
// only; this golden is what holds the other experiments that run TCP
// (F12, F16, F17, X2, X7–X10) to the same packet-level behaviour.
//
// Under -short it runs a fixed subset and checks that each of its rows
// is in the golden: the seed-42 bulk rows, the burst-loss row, and the
// cubic ackfault and fault rows.
func TestBulkGolden(t *testing.T) {
	short := testing.Short()
	if short && *updateGolden {
		t.Fatal("-update rewrites the whole golden: run it without -short")
	}
	var got bytes.Buffer
	for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
		for _, seed := range []int64{1, 42, 7} {
			if short && seed != 42 {
				continue
			}
			cfg := netsim.DefaultPath(tech, true)
			cfg.Seed = seed
			for _, name := range []string{"reno", "cubic", "vegas", "veno", "bbr"} {
				r := RunBulk(cfg, name, goldenBulkDur)
				fmt.Fprintf(&got, "bulk %s %s seed=%d retx=%d rtos=%d losses=%d %s\n",
					tech, name, seed, r.Retransmits, r.RTOs, r.LossEvents, hashBulk(r))
			}
		}
	}

	if !short {
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
	}

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

	faulted := []string{"cubic", "bbr"}
	if short {
		faulted = faulted[:1]
	}
	for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
		for _, name := range faulted {
			r := RunBulk(ackFaultPath(tech), name, goldenBulkDur)
			fmt.Fprintf(&got, "ackfault %s %s seed=42 retx=%d rtos=%d losses=%d %s\n",
				tech, name, r.Retransmits, r.RTOs, r.LossEvents, hashBulk(r))
		}
	}

	for _, plan := range faultPlans {
		for _, name := range faulted {
			r := RunBulk(faultPath(plan), name, goldenBulkDur)
			fmt.Fprintf(&got, "fault %s 5G %s seed=42 retx=%d rtos=%d losses=%d %s\n",
				plan.Name, name, r.Retransmits, r.RTOs, r.LossEvents, hashBulk(r))
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
	if short {
		rows := make(map[string]bool)
		for _, row := range strings.SplitAfter(string(want), "\n") {
			rows[row] = true
		}
		for _, row := range strings.SplitAfter(got.String(), "\n") {
			if row != "" && !rows[row] {
				t.Errorf("transport output drifted from %s: %q is not a golden row", path, row)
			}
		}
		return
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
	names := []string{"cubic", "bbr"}
	if testing.Short() {
		names = names[:1]
	}
	for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
		for _, name := range names {
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

// TestFaultRowsArmEveryHook shows that the golden's fault rows take the
// paths they are there to pin: faultPlans covers every fault.Kind, each
// plan's window ends, with a re-addition outage's worth of margin,
// before goldenBulkDur, and under each plan, with either controller, the
// fault window opens and the flow differs from the unfaulted one.
func TestFaultRowsArmEveryHook(t *testing.T) {
	if len(faultPlans) != int(fault.CellFailure)+1 {
		t.Fatalf("%d fault plans, want one per fault.Kind", len(faultPlans))
	}
	unfaulted := netsim.DefaultPath(radio.NR, true)
	unfaulted.Seed = 42
	names := []string{"cubic", "bbr"}
	if testing.Short() {
		names = names[:1]
	}
	base := map[string]string{}
	for _, name := range names {
		base[name] = hashBulk(RunBulk(unfaulted, name, goldenBulkDur))
	}
	for k, plan := range faultPlans {
		kind := fault.Kind(k)
		if f := plan.Faults; len(f) != 1 || f[0].Kind != kind {
			t.Fatalf("faultPlans[%d] = %+v, want one %s fault", k, f, kind)
		}
		if end := plan.Duration() + fault.ReestablishLatency; end > goldenBulkDur {
			t.Errorf("%s: window ends at %v, too close to the %v run's end", plan.Name, plan.Duration(), goldenBulkDur)
		}
		for name, h := range base {
			cfg := faultPath(plan)
			cfg.Obs = obs.NewRegistry()
			r := RunBulk(cfg, name, goldenBulkDur)
			if n := cfg.Obs.Counter("fault.windows{kind=" + kind.String() + "}").Value(); n == 0 {
				t.Errorf("%s %s: fault.windows{kind=%s} = 0", plan.Name, name, kind)
			}
			if hashBulk(r) == h {
				t.Errorf("%s %s: the fault left the flow unchanged", plan.Name, name)
			}
		}
	}
}
