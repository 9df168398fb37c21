package netsim

import (
	"testing"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/radio"
	"fivegsim/internal/rng"
)

func TestSetRANRateTakesEffect(t *testing.T) {
	cfg := DefaultPath(radio.NR, true)
	cfg.Cross = CrossConfig{}
	sch := des.New()
	path := NewPath(sch, cfg)
	var received int64
	path.ToUE = ReceiverFunc(func(p *Packet) { received += int64(p.Len) })
	rate := 900e6
	interval := time.Duration(float64((MSS+HeaderBytes)*8) / rate * 1e9)
	var tick func()
	tick = func() {
		if sch.Now() >= 2*time.Second {
			return
		}
		path.ServerIngress.Receive(&Packet{Len: MSS, Wire: MSS + HeaderBytes})
		sch.After(interval, tick)
	}
	tick()
	// Halfway through, drop the radio to a 4G-class rate.
	sch.After(time.Second, func() { path.SetRANRate(100e6) })
	sch.RunUntil(time.Second)
	firstHalf := received
	sch.RunUntil(2100 * time.Millisecond)
	secondHalf := received - firstHalf
	if secondHalf > firstHalf/3 {
		t.Fatalf("rate change ignored: %d vs %d bytes", firstHalf, secondHalf)
	}
	if path.Cfg.RANRateBps != 100e6 {
		t.Fatalf("config not updated: %v", path.Cfg.RANRateBps)
	}
}

func TestUplinkCarriesAckLoad(t *testing.T) {
	// The uplink hop must sustain the ACK stream of a saturated downlink:
	// ≈880 Mb/s / (2 × 1400 B) × 60 B ≈ 19 Mb/s ≪ 130 Mb/s.
	cfg := DefaultPath(radio.NR, true)
	cfg.Cross = CrossConfig{} // the cross source reschedules forever
	sch := des.New()
	path := NewPath(sch, cfg)
	var acked int64
	path.ToServer = ReceiverFunc(func(p *Packet) { acked++ })
	drops := countDrops(&path.UplinkRAN.queue)
	for i := 0; i < 10000; i++ {
		path.UEIngress.Receive(&Packet{Ack: true, Wire: HeaderBytes})
	}
	sch.RunUntil(2 * time.Second)
	if acked != 10000 {
		t.Fatalf("uplink dropped ACKs: %d/10000", acked)
	}
	if *drops != 0 {
		t.Fatalf("uplink drops: %d", *drops)
	}
}

func TestLockoutRecoversAfterDrain(t *testing.T) {
	sch := des.New()
	sink := ReceiverFunc(func(*Packet) {})
	hop := NewHop(sch, "h", 8e6, 0, 10_000, sink) // 1 kB/ms drain
	drops := countDrops(&hop.queue)
	// Overflow the queue.
	for i := 0; i < 20; i++ {
		hop.Receive(&Packet{Wire: 1000})
	}
	if *drops == 0 {
		t.Fatal("no overflow")
	}
	droppedAtPeak := *drops
	// Let it drain fully, then offer again: must accept.
	sch.RunUntil(time.Second)
	hop.Receive(&Packet{Wire: 1000})
	sch.Run()
	if *drops != droppedAtPeak {
		t.Fatal("lockout did not clear after drain")
	}
}

// TestOverflowPolicyPerHop pins each hop type's overflow watermark. A
// buffer of ten packets is filled until the first overflow drop, the
// backlog falls by exactly one packet, and one more packet is offered.
// The wired hop stays locked out until its backlog is at most
// limit − min(64 KiB, limit/2), so it drops the packet; the RAN is
// plain drop-tail, so the packet fits and is accepted.
func TestOverflowPolicyPerHop(t *testing.T) {
	const wire, limit = 1000, 10 * 1000
	sink := ReceiverFunc(func(*Packet) {})
	cases := []struct {
		name    string
		build   func(sch *des.Scheduler) *queue
		dropped int64 // drops after the final offer
	}{
		{"wired", func(sch *des.Scheduler) *queue {
			return &NewHop(sch, "h", 8e6, 0, limit, sink).queue
		}, 2},
		{"ran", func(sch *des.Scheduler) *queue {
			return &NewRANHop(sch, radio.NR, 8e6, 0, limit, rng.New(1).Stream("h"), sink).queue
		}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sch := des.New()
			q := c.build(sch)
			drops := countDrops(q)
			for *drops == 0 {
				q.Receive(&Packet{Wire: wire})
			}
			if q.QueuedBytes() != limit {
				t.Fatalf("backlog %d at the first drop, want the full %d", q.QueuedBytes(), limit)
			}
			// Step the clock until the serializer takes the next packet.
			for q.QueuedBytes() == limit {
				sch.RunUntil(sch.Now() + 10*time.Microsecond)
			}
			if q.QueuedBytes() != limit-wire {
				t.Fatalf("backlog %d after one departure, want %d", q.QueuedBytes(), limit-wire)
			}
			q.Receive(&Packet{Wire: wire})
			if *drops != c.dropped {
				t.Fatalf("%d drops after the final offer, want %d", *drops, c.dropped)
			}
		})
	}
}

func TestDayNightPRBContention(t *testing.T) {
	// §4.1: 4G gains ≈70 Mb/s at night (more PRBs); 5G barely moves.
	lteDay := DefaultPath(radio.LTE, true).RANRateBps
	lteNight := DefaultPath(radio.LTE, false).RANRateBps
	nrDay := DefaultPath(radio.NR, true).RANRateBps
	nrNight := DefaultPath(radio.NR, false).RANRateBps
	if lteNight-lteDay < 50e6 {
		t.Fatalf("4G day/night delta = %.0f Mb/s, paper ≈70", (lteNight-lteDay)/1e6)
	}
	if nrNight-nrDay > 40e6 {
		t.Fatalf("5G day/night delta = %.0f Mb/s, paper ≈20", (nrNight-nrDay)/1e6)
	}
}

func TestULRatesMatchPaper(t *testing.T) {
	// §4.1: UL baselines 50/100 Mb/s (4G day/night) and 130/130 (5G).
	if got := DefaultPath(radio.LTE, true).ULRateBps; got != 50e6 {
		t.Fatalf("4G day UL = %.0f", got/1e6)
	}
	if got := DefaultPath(radio.LTE, false).ULRateBps; got != 100e6 {
		t.Fatalf("4G night UL = %.0f", got/1e6)
	}
	if got := DefaultPath(radio.NR, true).ULRateBps; got != 130e6 {
		t.Fatalf("5G UL = %.0f", got/1e6)
	}
}

func TestCrossDisabled(t *testing.T) {
	cfg := DefaultPath(radio.NR, true)
	cfg.Cross = CrossConfig{}
	r := RunUDP(cfg, cfg.RANRateBps*0.8, 3*time.Second, nil)
	if r.LossRate != 0 {
		t.Fatalf("loss without cross traffic: %.3f%%", 100*r.LossRate)
	}
}
