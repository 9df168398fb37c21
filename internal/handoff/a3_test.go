package handoff

import (
	"testing"
	"time"
)

// A3 edge-case coverage: the TTT accumulator's reset-on-dip behaviour,
// its exact trigger boundary, and the hand-offs it produces from RSRP
// traces replayed through the real A3 state machine.

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

func ev(from, to int, at time.Duration) Event {
	return Event{Kind: FiveToFive, FromPCI: from, ToPCI: to, At: at}
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

// TestA3ReplayHandoffCounts drives hand-crafted RSRP/RSRQ traces
// through the A3 replay and counts the hand-offs: a cell-edge
// oscillation hands off on every sustained advantage, a clean crossing
// exactly once, and a sub-TTT blip not at all.
func TestA3ReplayHandoffCounts(t *testing.T) {
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
		// roles flip and the UE bounces straight back, twice over.
		trace := concat(adv(2, 3), adv(1, 3), adv(2, 3), adv(1, 3))
		events := replayA3(cfg, trace)
		if len(events) != 4 {
			t.Fatalf("replay produced %d hand-offs, want 4", len(events))
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
	})

	t.Run("sub-TTT blip", func(t *testing.T) {
		// Two ticks of advantage (200 ms < 324 ms-style TTT) then gone:
		// the TTT filter eats it, no hand-off.
		trace := concat(adv(2, 2), flat(2, 10))
		if events := replayA3(cfg, trace); len(events) != 0 {
			t.Fatalf("sub-TTT blip produced %d hand-offs, want 0", len(events))
		}
	})
}
