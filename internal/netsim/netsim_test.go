package netsim

import (
	"testing"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/radio"
	"fivegsim/internal/rng"
)

func TestHopForwardsInOrder(t *testing.T) {
	sch := des.New()
	var got []int64
	sink := ReceiverFunc(func(p *Packet) { got = append(got, p.Seq) })
	hop := NewHop(sch, "h", 1e6, time.Millisecond, 1<<20, sink)
	for i := int64(0); i < 10; i++ {
		hop.Receive(&Packet{Seq: i, Wire: 1000})
	}
	sch.Run()
	if len(got) != 10 {
		t.Fatalf("forwarded %d, want 10", len(got))
	}
	for i, seq := range got {
		if seq != int64(i) {
			t.Fatalf("out of order delivery: %v", got)
		}
	}
	// Serialization: 10 packets × 8000 bits at 1 Mb/s = 80 ms, + 1 ms prop.
	if sch.Now() != 81*time.Millisecond {
		t.Fatalf("final time = %v, want 81ms", sch.Now())
	}
}

func TestHopDropTail(t *testing.T) {
	sch := des.New()
	sink := ReceiverFunc(func(*Packet) {})
	hop := NewHop(sch, "h", 1e3, 0, 2500, sink)
	drops := countDrops(&hop.queue)
	for i := 0; i < 10; i++ {
		hop.Receive(&Packet{Seq: int64(i), Wire: 1000})
	}
	if *drops == 0 {
		t.Fatal("expected drop-tail losses")
	}
	if hop.QueuedBytes() > 2500 {
		t.Fatalf("queue exceeded limit: %d", hop.QueuedBytes())
	}
}

func TestRANHopInOrderDespiteHARQ(t *testing.T) {
	sch := des.New()
	var got []int64
	sink := ReceiverFunc(func(p *Packet) { got = append(got, p.Seq) })
	ran := NewRANHop(sch, radio.NR, 100e6, time.Millisecond, 1<<24,
		rng.New(1).Stream("h"), sink)
	for i := int64(0); i < 5000; i++ {
		ran.Receive(&Packet{Seq: i, Wire: 1460})
	}
	sch.Run()
	if len(got) != 5000 {
		t.Fatalf("delivered %d, want 5000 (HARQ must hide all loss)", len(got))
	}
	for i, seq := range got {
		if seq != int64(i) {
			t.Fatalf("RLC must deliver in order, got %d at %d", seq, i)
		}
	}
	if ran.AttemptsHist[2] == 0 {
		t.Fatal("no HARQ retransmissions occurred at 10% BLER")
	}
}

func TestRANOutageBuffersThenDrains(t *testing.T) {
	sch := des.New()
	delivered := 0
	sink := ReceiverFunc(func(p *Packet) { delivered++ })
	ran := NewRANHop(sch, radio.NR, 100e6, 0, 1<<22,
		rng.New(1).Stream("h"), sink)
	ran.SetOutage(100 * time.Millisecond)
	for i := int64(0); i < 100; i++ {
		ran.Receive(&Packet{Seq: i, Wire: 1460})
	}
	sch.RunUntil(50 * time.Millisecond)
	if delivered != 0 {
		t.Fatalf("delivered %d during outage", delivered)
	}
	sch.RunUntil(200 * time.Millisecond)
	if delivered != 100 {
		t.Fatalf("delivered %d after outage, want 100", delivered)
	}
}

func TestUDPBaselinesMatchFig7(t *testing.T) {
	// Paper Fig. 7 UDP baselines: 5G 880 (day) / 900 (night); 4G 130/200.
	cases := []struct {
		tech    radio.Tech
		daytime bool
		wantMin float64
		wantMax float64
	}{
		{radio.NR, true, 790e6, 900e6},
		{radio.NR, false, 800e6, 920e6},
		{radio.LTE, true, 118e6, 140e6},
		{radio.LTE, false, 180e6, 210e6},
	}
	var day, night float64
	for _, c := range cases {
		got := UDPBaseline(DefaultPath(c.tech, c.daytime), 8*time.Second).DeliveredBps
		if got < c.wantMin || got > c.wantMax {
			t.Errorf("%v daytime=%v baseline = %.0f Mb/s, want %.0f–%.0f",
				c.tech, c.daytime, got/1e6, c.wantMin/1e6, c.wantMax/1e6)
		}
		if c.tech == radio.NR {
			if c.daytime {
				day = got
			} else {
				night = got
			}
		}
	}
	if night <= day {
		t.Errorf("5G night baseline (%.0f) should exceed daytime (%.0f)", night/1e6, day/1e6)
	}
}

func TestFig9LossVsLoad(t *testing.T) {
	nr := DefaultPath(radio.NR, true)
	lte := DefaultPath(radio.LTE, true)
	fractions := []float64{0.2, 1.0 / 3, 0.5, 1}
	var nrLoss, lteLoss []float64
	for _, f := range fractions {
		nrLoss = append(nrLoss, RunUDP(nr, nr.RANRateBps*f, 10*time.Second, nil).LossRate)
		lteLoss = append(lteLoss, RunUDP(lte, lte.RANRateBps*f, 10*time.Second, nil).LossRate)
	}
	// Monotone in load for 5G.
	for i := 1; i < len(nrLoss); i++ {
		if nrLoss[i]+0.001 < nrLoss[i-1] {
			t.Fatalf("5G loss not monotone: %v", nrLoss)
		}
	}
	// Paper: at 1/2 load the 5G loss already exceeds ≈3 % (we accept ≥1.5 %)
	// and is ≈10× the 4G loss.
	if nrLoss[2] < 0.015 {
		t.Fatalf("5G loss at 1/2 load = %.2f%%, paper reports >3%%", 100*nrLoss[2])
	}
	if lteLoss[2] > nrLoss[2]/5 {
		t.Fatalf("4G loss at 1/2 load (%.3f%%) should be ≪ 5G's (%.2f%%)", 100*lteLoss[2], 100*nrLoss[2])
	}
	if lteLoss[3] > 0.01 {
		t.Fatalf("4G loss at full load = %.2f%%, paper reports ≈0.3%%", 100*lteLoss[3])
	}
}

func TestFig11BurstyLossPattern(t *testing.T) {
	cfg := DefaultPath(radio.NR, true)
	var runs []LossRun
	r := RunUDP(cfg, cfg.RANRateBps*0.9, 8*time.Second, func(run LossRun) { runs = append(runs, run) })
	if len(runs) == 0 {
		t.Fatal("no losses at 0.9× baseline")
	}
	long := 0
	var lost, next int64
	for _, run := range runs {
		if run.Len >= 5 {
			long++
		}
		// Runs are gaps between arrivals: positive, in sequence order,
		// separated by at least one received datagram.
		if run.Len <= 0 || run.First <= next {
			t.Fatalf("loss run %+v after sequence %d", run, next)
		}
		next = run.First + int64(run.Len)
		lost += int64(run.Len)
	}
	if lost > r.Sent-r.Received {
		t.Fatalf("loss runs cover %d datagrams, but only %d of %d were lost", lost, r.Sent-r.Received, r.Sent)
	}
	// Bursty: a substantial share of loss runs are ≥5 consecutive packets.
	if frac := float64(long) / float64(len(runs)); frac < 0.2 {
		t.Fatalf("only %.1f%% of loss runs are bursts (≥5 pkts); drop-tail overflow should be bursty", 100*frac)
	}
}

func TestFig10HARQAttempts(t *testing.T) {
	// Run saturated traffic and check the Fig. 10 claims: retransmissions
	// converge within ≤4 attempts on 4G and ≤2–3 on 5G, with zero residual
	// loss reaching the transport layer.
	for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
		cfg := DefaultPath(tech, true)
		sch := des.New()
		path := NewPath(sch, cfg)
		path.ToUE = ReceiverFunc(func(p *Packet) {})
		interval := time.Duration(float64((MSS+HeaderBytes)*8) / cfg.RANRateBps * float64(time.Second))
		var tick func()
		var seq int64
		tick = func() {
			if sch.Now() >= 5*time.Second {
				return
			}
			path.ServerIngress.Receive(&Packet{Seq: seq, Len: MSS, Wire: MSS + HeaderBytes})
			seq++
			sch.After(interval, tick)
		}
		tick()
		sch.RunUntil(6 * time.Second)
		if path.RAN.ResidualLoss != 0 {
			t.Fatalf("%v: HARQ residual loss reached transport", tech)
		}
		retx := path.RAN.Retransmissions()
		if len(retx) == 0 {
			t.Fatalf("%v: no HARQ retransmissions recorded", tech)
		}
		maxRetx := 0
		for k := range retx {
			if k > maxRetx {
				maxRetx = k
			}
		}
		if tech == radio.NR && maxRetx > 2 {
			t.Fatalf("5G max retransmissions = %d, paper observes ≤2", maxRetx)
		}
		if tech == radio.LTE && maxRetx > 4 {
			t.Fatalf("4G max retransmissions = %d, paper observes ≤4", maxRetx)
		}
	}
}

// MeanRate returns the long-run aggregate background rate in bits/s.
func (c CrossConfig) MeanRate() float64 {
	return c.PBusy*(c.BusyLoBps+c.BusyHiBps)/2 + (1-c.PBusy)*c.IdleHiBps/2
}

func TestCrossMeanRate(t *testing.T) {
	c := DefaultCross()
	if m := c.MeanRate(); m < 50e6 || m > 300e6 {
		t.Fatalf("cross mean rate = %.0f Mb/s, implausible", m/1e6)
	}
	if LegacyCross().BusyHiBps >= DefaultCross().BusyHiBps {
		t.Fatal("legacy (4G-path) bursts should be smaller than the 5G path's")
	}
}

func TestBaseRTTMatchesPaperGap(t *testing.T) {
	nr := DefaultPath(radio.NR, true).BaseRTT()
	lte := DefaultPath(radio.LTE, true).BaseRTT()
	// Paper: 5G one-way ≈21.8 ms ⇒ RTT ≈21.2 ms for the same-city server,
	// with the 4G path ≈22.3 ms RTT slower.
	gap := lte - nr
	if gap < 18*time.Millisecond || gap > 27*time.Millisecond {
		t.Fatalf("4G−5G RTT gap = %v, paper reports ≈22.3 ms", gap)
	}
}

func TestPathOutageStallsDelivery(t *testing.T) {
	cfg := DefaultPath(radio.NR, true)
	sch := des.New()
	path := NewPath(sch, cfg)
	var lastDelivery time.Duration
	path.ToUE = ReceiverFunc(func(p *Packet) { lastDelivery = sch.Now() })
	var tick func()
	var seq int64
	tick = func() {
		if sch.Now() >= 2*time.Second {
			return
		}
		path.ServerIngress.Receive(&Packet{Seq: seq, Len: MSS, Wire: MSS + HeaderBytes})
		seq++
		sch.After(5*time.Millisecond, tick)
	}
	tick()
	sch.After(time.Second, func() { path.Outage(108 * time.Millisecond) })
	sch.RunUntil(1050 * time.Millisecond)
	stalledAt := lastDelivery
	sch.RunUntil(1100 * time.Millisecond)
	if lastDelivery != stalledAt {
		t.Fatal("deliveries continued during hand-off outage")
	}
	sch.RunUntil(2 * time.Second)
	if lastDelivery <= 1108*time.Millisecond {
		t.Fatal("deliveries did not resume after outage")
	}
}

// countDrops counts the packets q drops from now on, through its OnDrop
// hook.
func countDrops(q *queue) *int64 {
	n := new(int64)
	q.OnDrop = func(*Packet) { *n++ }
	return n
}
