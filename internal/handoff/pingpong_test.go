package handoff

import (
	"testing"
	"time"

	"fivegsim/internal/deploy"
	"fivegsim/internal/radio"
)

// A3 edge-case and ping-pong detector coverage: the TTT accumulator's
// reset-on-dip behaviour, the simultaneous-candidate tie-break, and the
// detector over both hand-crafted event sequences and RSRP traces
// replayed through the real A3 state machine.

const tick = 100 * time.Millisecond

// TestA3TrackerTTTResetOnDip pins that a single sample where the
// neighbor advantage dips below the gap restarts the time-to-trigger
// from zero — the condition must hold *continuously*, per Eq. (1).
func TestA3TrackerTTTResetOnDip(t *testing.T) {
	tr := NewA3Tracker(A3Config{GapDB: 3, TimeToTrigger: 300 * time.Millisecond})
	// Two qualifying samples (200 ms of the 300 ms TTT)…
	for i := 0; i < 2; i++ {
		if tr.Observe(-12, -8, tick) {
			t.Fatalf("fired after %d00 ms, before TTT", i+1)
		}
	}
	// …then a dip: advantage 2 dB < 3 dB gap. Must reset, not pause.
	if tr.Observe(-12, -10, tick) {
		t.Fatal("fired on the dip sample")
	}
	// Two more qualifying samples: only 200 ms since the reset, so the
	// pre-dip 200 ms must not count.
	for i := 0; i < 2; i++ {
		if tr.Observe(-12, -8, tick) {
			t.Fatalf("fired %d00 ms after the dip — TTT did not reset", i+1)
		}
	}
	// The third consecutive sample completes 300 ms and fires.
	if !tr.Observe(-12, -8, tick) {
		t.Fatal("did not fire after TTT of continuous advantage")
	}
}

// TestA3TrackerExactBoundary pins that exactly-at-gap samples do NOT
// qualify (the inequality is strict) and that the tracker fires on the
// sample at which the accumulated hold reaches TTT, not one later.
func TestA3TrackerExactBoundary(t *testing.T) {
	tr := NewA3Tracker(A3Config{GapDB: 3, TimeToTrigger: 300 * time.Millisecond})
	if tr.Observe(-12, -9, tick) {
		t.Fatal("advantage == gap must not qualify")
	}
	if tr.heldFor != 0 {
		t.Fatalf("advantage == gap left heldFor at %v, want 0", tr.heldFor)
	}
	fired := -1
	for i := 0; i < 5; i++ {
		if tr.Observe(-12, -8.5, tick) {
			fired = i
			break
		}
	}
	if fired != 2 {
		t.Fatalf("fired on qualifying sample %d, want 2 (3×100 ms ≥ 300 ms)", fired)
	}
}

// TestBestCandidateTieBreakPCI pins the simultaneous-candidate rule:
// exact RSRP ties resolve to the lower PCI, independent of input order —
// the same strict total order MeasureAll's sort imposes.
func TestBestCandidateTieBreakPCI(t *testing.T) {
	a := radio.Measurement{PCI: 44, RSRPdBm: -90}
	b := radio.Measurement{PCI: 226, RSRPdBm: -90}
	c := radio.Measurement{PCI: 441, RSRPdBm: -95}
	for _, ms := range [][]radio.Measurement{{a, b, c}, {b, a, c}, {c, b, a}} {
		got, ok := BestCandidate(ms)
		if !ok || got.PCI != 44 {
			t.Fatalf("BestCandidate(%v) = PCI %d ok=%v, want PCI 44 (tie → lower PCI)", ms, got.PCI, ok)
		}
	}
	// A genuinely stronger high-PCI cell still wins: the tie-break only
	// applies on exact equality.
	d := radio.Measurement{PCI: 500, RSRPdBm: -89.5}
	if got, _ := BestCandidate([]radio.Measurement{a, b, d}); got.PCI != 500 {
		t.Fatalf("strongest cell lost to the tie-break: got PCI %d, want 500", got.PCI)
	}
	if _, ok := BestCandidate(nil); ok {
		t.Fatal("empty candidate set reported ok")
	}
}

func ev(from, to int, at time.Duration) Event {
	return Event{Kind: FiveToFive, FromPCI: from, ToPCI: to, At: at}
}

// TestDetectPingPongsEvents is the table-driven detector suite over
// hand-crafted event sequences.
func TestDetectPingPongsEvents(t *testing.T) {
	w := time.Second
	cases := []struct {
		name   string
		events []Event
		want   int
	}{
		{"empty", nil, 0},
		{"single hand-off", []Event{ev(1, 2, 0)}, 0},
		{"return inside window", []Event{ev(1, 2, 0), ev(2, 1, 500*time.Millisecond)}, 1},
		{"return at window edge", []Event{ev(1, 2, 0), ev(2, 1, time.Second)}, 1},
		{"return after window", []Event{ev(1, 2, 0), ev(2, 1, 1100*time.Millisecond)}, 0},
		{"triangle is not a ping-pong", []Event{ev(1, 2, 0), ev(2, 3, 200*time.Millisecond), ev(3, 1, 400*time.Millisecond)}, 0},
		{"double oscillation", []Event{
			ev(1, 2, 0), ev(2, 1, 300*time.Millisecond),
			ev(1, 2, 600*time.Millisecond), ev(2, 1, 900*time.Millisecond),
		}, 3}, // 2→1, 1→2 (back onto 2 within window) and 2→1 again all return to a just-left cell
		{"interleaved chains detect independently", []Event{
			ev(1, 2, 0),                      // NR leg: 1→2
			ev(10, 20, 100*time.Millisecond), // LTE leg: 10→20
			ev(2, 1, 400*time.Millisecond),   // NR returns: ping-pong
			ev(20, 30, 500*time.Millisecond), // LTE moves on: no ping-pong
		}, 1},
		{"stale arrival does not re-match", []Event{
			ev(1, 2, 0),
			ev(2, 3, 200*time.Millisecond),
			ev(3, 2, 400*time.Millisecond), // 2→3→2: ping-pong on (2,3)
			ev(2, 1, 600*time.Millisecond), // 1→2 was left at t=200; must not count as return
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := DetectPingPongs(tc.events, w)
			if len(got) != tc.want {
				t.Fatalf("DetectPingPongs = %d ping-pongs (%v), want %d", len(got), got, tc.want)
			}
		})
	}
}

// replayA3 pushes a hand-crafted trace of (serving RSRQ, best-neighbor
// RSRQ, neighbor PCI) samples through the real A3 state machine and
// returns the resulting hand-off sequence, starting from serving PCI 1.
func replayA3(cfg A3Config, trace []struct {
	serv, neigh float64
	neighPCI    int
}) []Event {
	tr := NewA3Tracker(cfg)
	serving := 1
	var events []Event
	for i, s := range trace {
		if s.neighPCI == serving {
			tr.Reset()
			continue
		}
		if tr.Observe(s.serv, s.neigh, tick) {
			events = append(events, ev(serving, s.neighPCI, time.Duration(i)*tick))
			serving = s.neighPCI
			tr.Reset()
		}
	}
	return events
}

// TestPingPongFromRSRPTraces drives hand-crafted RSRP/RSRQ traces
// through the A3 replay and checks what the detector sees: a cell-edge
// oscillation produces ping-pongs, a clean crossing produces exactly one
// hand-off and none, and a sub-TTT blip produces no hand-off at all.
func TestPingPongFromRSRPTraces(t *testing.T) {
	cfg := A3Config{GapDB: 3, TimeToTrigger: 300 * time.Millisecond}
	type sample = struct {
		serv, neigh float64
		neighPCI    int
	}
	adv := func(pci, n int) []sample { // n ticks of +4 dB advantage for pci
		out := make([]sample, n)
		for i := range out {
			out[i] = sample{serv: -14, neigh: -10, neighPCI: pci}
		}
		return out
	}
	flat := func(pci, n int) []sample { // n ticks with no advantage
		out := make([]sample, n)
		for i := range out {
			out[i] = sample{serv: -12, neigh: -12, neighPCI: pci}
		}
		return out
	}
	concat := func(parts ...[]sample) (all []sample) {
		for _, p := range parts {
			all = append(all, p...)
		}
		return
	}

	t.Run("cell edge oscillation", func(t *testing.T) {
		// Serving 1, neighbor 2 holds the edge both ways: 1→2, then the
		// roles flip and the UE bounces straight back within the window.
		trace := concat(adv(2, 3), adv(1, 3), adv(2, 3), adv(1, 3))
		events := replayA3(cfg, trace)
		if len(events) != 4 {
			t.Fatalf("replay produced %d hand-offs, want 4", len(events))
		}
		pps := DetectPingPongs(events, DefaultPingPongWindow)
		if len(pps) != 3 {
			t.Fatalf("oscillating edge: %d ping-pongs (%v), want 3", len(pps), pps)
		}
		if pps[0].A != 1 || pps[0].B != 2 {
			t.Fatalf("first ping-pong pair = (%d,%d), want (1,2)", pps[0].A, pps[0].B)
		}
	})

	t.Run("clean crossing", func(t *testing.T) {
		// One sustained advantage, then the new serving cell stays best:
		// a legitimate hand-off, no return.
		trace := concat(adv(2, 3), flat(1, 20))
		events := replayA3(cfg, trace)
		if len(events) != 1 {
			t.Fatalf("clean crossing: %d hand-offs, want 1", len(events))
		}
		if got := DetectPingPongs(events, DefaultPingPongWindow); len(got) != 0 {
			t.Fatalf("clean crossing flagged %d ping-pongs", len(got))
		}
		if r := PingPongRate(events, DefaultPingPongWindow); r != 0 {
			t.Fatalf("ping-pong rate %f, want 0", r)
		}
	})

	t.Run("sub-TTT blip", func(t *testing.T) {
		// Two ticks of advantage (200 ms < 324 ms-style TTT) then gone:
		// the TTT filter eats it, no hand-off, nothing to detect.
		trace := concat(adv(2, 2), flat(2, 10))
		if events := replayA3(cfg, trace); len(events) != 0 {
			t.Fatalf("sub-TTT blip produced %d hand-offs, want 0", len(events))
		}
	})
}

// TestCampaignPingPongDetector smoke-checks the detector over a real
// walking campaign: the rate is a sane fraction and every detected
// ping-pong's gap respects the window.
func TestCampaignPingPongDetector(t *testing.T) {
	campus := deploy.New(42)
	cfg := DefaultConfig()
	cfg.Duration = 10 * time.Minute
	if testing.Short() {
		cfg.Duration = 3 * time.Minute
	}
	c := RunCampaign(campus, cfg, 42)
	pps := DetectPingPongs(c.Events, DefaultPingPongWindow)
	if r := PingPongRate(c.Events, DefaultPingPongWindow); r < 0 || r > 1 {
		t.Fatalf("ping-pong rate %f outside [0,1]", r)
	}
	for _, pp := range pps {
		if pp.Gap <= 0 || pp.Gap > DefaultPingPongWindow {
			t.Fatalf("ping-pong gap %v outside (0, %v]", pp.Gap, DefaultPingPongWindow)
		}
		if pp.A == pp.B {
			t.Fatalf("degenerate ping-pong pair (%d,%d)", pp.A, pp.B)
		}
	}
}
