package cc

import (
	"testing"
	"time"
)

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		c := New(name)
		if c == nil {
			t.Fatalf("New(%q) = nil", name)
		}
		if c.Name() != name {
			t.Fatalf("Name() = %q, want %q", c.Name(), name)
		}
		if c.Cwnd() != InitialWindow {
			t.Fatalf("%s: initial cwnd = %d, want %d", name, c.Cwnd(), InitialWindow)
		}
	}
	if New("nope") != nil {
		t.Fatal("unknown name should return nil")
	}
}

func TestRenoSlowStartAndAIMD(t *testing.T) {
	r := NewReno()
	rtt := 40 * time.Millisecond
	// Slow start: cwnd grows by acked bytes.
	start := r.Cwnd()
	r.OnAck(0, SegBytes, rtt, 0)
	if r.Cwnd() != start+SegBytes {
		t.Fatalf("slow start growth = %d", r.Cwnd()-start)
	}
	// Loss halves.
	grown := r.Cwnd()
	r.OnLoss(0, grown)
	if r.Cwnd() != grown/2 {
		t.Fatalf("post-loss cwnd = %d, want %d", r.Cwnd(), grown/2)
	}
	// Congestion avoidance: ≈1 MSS per cwnd of acked bytes.
	base := float64(r.Cwnd())
	acks := int(base) / SegBytes
	for i := 0; i < acks; i++ {
		r.OnAck(0, SegBytes, rtt, 0)
	}
	if got := float64(r.Cwnd()) - base; got < 0.8*SegBytes || got > 1.3*SegBytes {
		t.Fatalf("CA growth per RTT = %.0f bytes, want ≈1 MSS", got)
	}
	// RTO floors the window.
	r.OnRTO(0)
	if r.Cwnd() != MinWindow {
		t.Fatalf("post-RTO cwnd = %d, want %d", r.Cwnd(), MinWindow)
	}
}

func TestCubicBetaAndRegrowth(t *testing.T) {
	c := NewCubic()
	rtt := 40 * time.Millisecond
	// Grow past slow start.
	for i := 0; i < 200; i++ {
		c.OnAck(time.Duration(i)*rtt, SegBytes, rtt, 0)
	}
	pre := float64(c.Cwnd())
	c.OnLoss(200*rtt, 0)
	if got := float64(c.Cwnd()); got < pre*cubicBeta*0.95 || got > pre*cubicBeta*1.05 {
		t.Fatalf("cubic loss response = %.2f×, want β=%.1f", got/pre, cubicBeta)
	}
	// Concave regrowth approaches the previous maximum over time.
	now := 200 * rtt
	for i := 0; i < 4000; i++ {
		now += rtt / 8
		c.OnAck(now, SegBytes, rtt, 0)
	}
	if float64(c.Cwnd()) < pre*0.9 {
		t.Fatalf("cubic did not regrow toward Wmax: %d vs %0.f", c.Cwnd(), pre)
	}
}

func TestVegasBacksOffOnQueueing(t *testing.T) {
	v := NewVegas()
	base := 40 * time.Millisecond
	now := time.Duration(0)
	// Establish baseRTT and exit slow start with inflated RTT.
	for i := 0; i < 200; i++ {
		now += 10 * time.Millisecond
		v.OnAck(now, SegBytes, base, 0)
	}
	grown := v.Cwnd()
	// Now the path queues: RTT inflates 50 %; Vegas should shrink or hold,
	// never grow.
	for i := 0; i < 200; i++ {
		now += 10 * time.Millisecond
		v.OnAck(now, SegBytes, base*3/2, 0)
	}
	if v.Cwnd() > grown {
		t.Fatalf("vegas grew under queueing: %d → %d", grown, v.Cwnd())
	}
}

func TestVenoMildCutOnRandomLoss(t *testing.T) {
	v := NewVeno()
	rtt := 40 * time.Millisecond
	for i := 0; i < 100; i++ {
		v.OnAck(time.Duration(i)*rtt, SegBytes, rtt, 0)
	}
	pre := v.Cwnd()
	// RTT equals baseRTT ⇒ backlog ≈ 0 ⇒ loss deemed random ⇒ 4/5 cut.
	v.OnLoss(0, 0)
	got := float64(v.Cwnd()) / float64(pre)
	if got < 0.75 || got > 0.85 {
		t.Fatalf("veno random-loss cut = %.2f, want ≈0.8", got)
	}
}

func TestVenoRenoCutOnCongestiveLoss(t *testing.T) {
	v := NewVeno()
	base := 40 * time.Millisecond
	v.OnAck(0, SegBytes, base, 0) // records baseRTT
	for i := 0; i < 100; i++ {
		v.OnAck(time.Duration(i)*base, SegBytes, base*2, 0) // queueing
	}
	pre := v.Cwnd()
	v.OnLoss(0, 0)
	got := float64(v.Cwnd()) / float64(pre)
	if got < 0.45 || got > 0.55 {
		t.Fatalf("veno congestive cut = %.2f, want ≈0.5", got)
	}
}

// State returns a human-readable phase name (diagnostics).
func (b *BBR) State() string {
	switch b.state {
	case bbrStartup:
		return "STARTUP"
	case bbrDrain:
		return "DRAIN"
	case bbrProbeBW:
		return "PROBE_BW"
	default:
		return "PROBE_RTT"
	}
}

func TestBBRStartupExitsOnPlateau(t *testing.T) {
	b := NewBBR()
	rtt := 20 * time.Millisecond
	now := time.Duration(0)
	if b.State() != "STARTUP" {
		t.Fatalf("initial state %s", b.State())
	}
	// Feed a constant delivery rate; startup should exit after the
	// bandwidth stops growing, and eventually reach PROBE_BW.
	for i := 0; i < 200; i++ {
		now += rtt
		b.OnAck(now, 250_000, rtt, 100_000)
	}
	if b.State() == "STARTUP" {
		t.Fatal("BBR never left STARTUP on a bandwidth plateau")
	}
	for i := 0; i < 50; i++ {
		now += rtt
		b.OnAck(now, 250_000, rtt, 100_000)
	}
	if b.State() != "PROBE_BW" && b.State() != "PROBE_RTT" {
		t.Fatalf("BBR stuck in %s", b.State())
	}
	// The model: cwnd ≈ 2×BDP, pacing ≈ BtlBw.
	bdp := 250_000.0 * 8 / rtt.Seconds() / 8 * rtt.Seconds() // = 250 KB per RTT
	if got := float64(b.Cwnd()); got < bdp || got > 3*bdp {
		t.Fatalf("cwnd = %.0f, want ≈2×BDP (%.0f)", got, 2*bdp)
	}
	if pr := b.PacingRate(); pr < 0.5*250_000*8/rtt.Seconds() || pr > 2*250_000*8/rtt.Seconds() {
		t.Fatalf("pacing rate = %.0f implausible", pr)
	}
}

func TestBBRIgnoresLoss(t *testing.T) {
	b := NewBBR()
	rtt := 20 * time.Millisecond
	now := time.Duration(0)
	for i := 0; i < 100; i++ {
		now += rtt
		b.OnAck(now, 250_000, rtt, 100_000)
	}
	pre := b.Cwnd()
	for i := 0; i < 50; i++ {
		b.OnLoss(now, 100_000)
	}
	if b.Cwnd() != pre {
		t.Fatal("BBR model must not shrink on loss events")
	}
}

func TestControllersSurviveRTO(t *testing.T) {
	for _, name := range Names() {
		c := New(name)
		rtt := 30 * time.Millisecond
		for i := 0; i < 50; i++ {
			c.OnAck(time.Duration(i)*rtt, SegBytes, rtt, 0)
		}
		c.OnRTO(50 * rtt)
		if c.Cwnd() < MinWindow {
			t.Fatalf("%s: cwnd below floor after RTO", name)
		}
		// Must keep working after RTO.
		for i := 0; i < 50; i++ {
			c.OnAck(time.Duration(50+i)*rtt, SegBytes, rtt, 0)
		}
		if c.Cwnd() <= 0 {
			t.Fatalf("%s: dead after RTO", name)
		}
	}
}
