package video

import (
	"testing"
	"time"

	"fivegsim/internal/radio"
)

func TestFig18ThroughputShape(t *testing.T) {
	rows := RunFig18(30*time.Second, 42)
	if len(rows) != 16 {
		t.Fatalf("want 16 rows (4 res × 2 scenes × 2 techs), got %d", len(rows))
	}
	get := func(res Resolution, tech radio.Tech, dyn bool) float64 {
		for _, r := range rows {
			if r.Res == res && r.Tech == tech && r.Dynamic == dyn {
				return r.Received
			}
		}
		t.Fatalf("missing row %v/%v/%v", res, tech, dyn)
		return 0
	}
	// §5.2: all resolutions fit within the 5G uplink; 4G cannot support
	// 5.7K ("the average throughput of 5.7K video under 4G is much smaller
	// than that under 5G").
	if g5, g4 := get(R57K, radio.NR, false), get(R57K, radio.LTE, false); g4 > 0.72*g5 {
		t.Fatalf("4G 5.7K (%.0f Mb/s) should fall far below 5G (%.0f Mb/s)", g4/1e6, g5/1e6)
	}
	// 5G carries static 5.7K essentially loss-free (≈74 Mb/s offered).
	if g := get(R57K, radio.NR, false); g < 65e6 || g > 85e6 {
		t.Fatalf("5G static 5.7K received = %.0f Mb/s, want ≈74", g/1e6)
	}
	// Up to 4K, 4G and 5G receive the same static stream (both fit).
	for _, res := range []Resolution{R720P, R1080P} {
		g5, g4 := get(res, radio.NR, false), get(res, radio.LTE, false)
		if g4 < 0.95*g5 {
			t.Fatalf("%v static should fit both techs: 4G %.0f vs 5G %.0f", res, g4/1e6, g5/1e6)
		}
	}
	// Dynamic scenes carry more bits than static at every resolution.
	for _, res := range Resolutions() {
		if get(res, radio.NR, true) <= get(res, radio.NR, false) {
			t.Fatalf("%v: dynamic throughput should exceed static on 5G", res)
		}
	}
	// 5G received rates never exceed the uplink budget by more than
	// rounding.
	for _, r := range rows {
		if r.Tech == radio.NR && r.Received > 108e6 {
			t.Fatalf("received %.0f Mb/s exceeds the 5G uplink", r.Received/1e6)
		}
	}
}

func TestFig19FluctuationAndFreezes(t *testing.T) {
	dyn := Run(R57K, radio.NR, true, 30*time.Second, 42)
	static := Run(R57K, radio.NR, false, 30*time.Second, 42)
	// The paper observes 6 frame-freezing events in the dynamic 5.7K
	// session and none worth reporting in the static one.
	if dyn.Freezes < 1 || dyn.Freezes > 15 {
		t.Fatalf("dynamic 5.7K freezes = %d, paper reports 6", dyn.Freezes)
	}
	if static.Freezes != 0 {
		t.Fatalf("static 5.7K froze %d times", static.Freezes)
	}
	// Fig. 19: the dynamic series fluctuates far more than the static one.
	variance := func(xs []float64) float64 {
		var sum, ss float64
		for _, x := range xs {
			sum += x
		}
		m := sum / float64(len(xs))
		for _, x := range xs {
			ss += (x - m) * (x - m)
		}
		return ss / float64(len(xs))
	}
	vd := variance(dyn.ThroughputSeries(time.Second))
	vs := variance(static.ThroughputSeries(time.Second))
	if vd < 2*vs {
		t.Fatalf("dynamic variance (%.2e) should dwarf static (%.2e)", vd, vs)
	}
}

func TestFig20FrameDelay(t *testing.T) {
	s := Run(R4K, radio.NR, false, 30*time.Second, 42)
	delay := s.MeanFrameDelay()
	// §5.2: "even for 5G, the frame latency remains on the level of
	// 950 ms, which falls short of the 460 ms requirements".
	if delay < 800*time.Millisecond || delay > 1100*time.Millisecond {
		t.Fatalf("5G 4K frame delay = %v, paper ≈950 ms", delay)
	}
	if delay < RealTimeBudget {
		t.Fatalf("frame delay %v must miss the %v real-time budget", delay, RealTimeBudget)
	}
	// 4G is worse (congestion at 4K).
	s4 := Run(R4K, radio.LTE, false, 30*time.Second, 42)
	if s4.MeanFrameDelay() <= delay {
		t.Fatalf("4G 4K delay (%v) should exceed 5G's (%v)", s4.MeanFrameDelay(), delay)
	}
}

func TestProcessingDominatesTransmission(t *testing.T) {
	// §5.2: frame processing ≈650 ms is ≈10× the network transmission
	// share (≈66 ms).
	proc := ProcessingLatency()
	if proc != 650*time.Millisecond {
		t.Fatalf("processing latency = %v, paper 650 ms", proc)
	}
	s := Run(R4K, radio.NR, false, 30*time.Second, 42)
	network := s.MeanFrameDelay() - proc - PlayoutBuffer
	if network <= 0 {
		t.Fatalf("network share non-positive: %v", network)
	}
	ratio := float64(proc) / float64(network)
	if ratio < 5 || ratio > 30 {
		t.Fatalf("processing/network ratio = %.1f, paper ≈10×", ratio)
	}
}

func TestSessionDeterminism(t *testing.T) {
	a := Run(R4K, radio.NR, true, 10*time.Second, 5)
	b := Run(R4K, radio.NR, true, 10*time.Second, 5)
	if a.Freezes != b.Freezes || len(a.Frames) != len(b.Frames) || a.MeanFrameDelay() != b.MeanFrameDelay() {
		t.Fatal("session must be deterministic")
	}
}

// OfferedBps returns the encoder's mean output rate over the session.
func (s SessionResult) OfferedBps() float64 {
	var bytes int64
	for _, f := range s.Frames {
		bytes += int64(f.Bytes)
	}
	return float64(bytes*8) / s.Duration.Seconds()
}

func TestOfferedVsReceived(t *testing.T) {
	// Overloaded 4G 5.7K must drop frames: offered > received.
	s := Run(R57K, radio.LTE, true, 20*time.Second, 3)
	if s.ReceivedBps() >= s.OfferedBps() {
		t.Fatal("overloaded uplink must drop frames")
	}
	dropped := 0
	for _, f := range s.Frames {
		if f.Dropped {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no frames dropped on an overloaded 4G uplink")
	}
}

func TestResolutionNames(t *testing.T) {
	want := []string{"720P", "1080P", "4K", "5.7K"}
	for i, res := range Resolutions() {
		if res.String() != want[i] {
			t.Fatalf("resolution %d name %q", i, res.String())
		}
	}
}
