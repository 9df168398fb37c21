package cc

import "time"

// BBR is a compact model of BBR v1 (Cardwell et al., the paper's [24]):
// it estimates the bottleneck bandwidth (windowed-max of delivery-rate
// samples) and the propagation RTT (windowed-min), paces at gain×BtlBw,
// and caps inflight at 2×BDP. Packet loss does not enter the model, which
// is exactly why it keeps 82.5 % of the 5G capacity where loss-based
// algorithms collapse (§4.1).
type BBR struct {
	state bbrState

	// Bandwidth filter: windowed max over the last bwWindow
	// delivery-rate samples (bits/s).
	bwSamples []float64
	btlBw     float64 // bits/s

	// RTprop filter.
	rtProp      time.Duration
	rtPropStamp time.Duration

	// Delivery-rate sampling.
	accBytes   int
	accStart   time.Duration
	fullBwLast float64
	fullBwCnt  int

	// ProbeBW gain cycling.
	cycleIdx   int
	cycleStamp time.Duration

	// ProbeRTT bookkeeping.
	probeRTTDone time.Duration

	cwnd int
}

type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

const (
	bbrHighGain  = 2.885
	bbrBwWindow  = 10 // samples
	bbrRTTWindow = 10 * time.Second
)

var bbrCycleGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// NewBBR returns a BBR controller.
func NewBBR() *BBR {
	return &BBR{state: bbrStartup, cwnd: InitialWindow}
}

// Name implements Controller.
func (b *BBR) Name() string { return "bbr" }

// OnAck implements Controller.
func (b *BBR) OnAck(now time.Duration, acked int, rtt time.Duration, inflight int) {
	if b.rtProp == 0 || rtt <= b.rtProp || now-b.rtPropStamp > bbrRTTWindow {
		b.rtProp = rtt
		b.rtPropStamp = now
	}

	// Delivery-rate sample roughly once per RTT.
	if b.accStart == 0 {
		b.accStart = now
	}
	b.accBytes += acked
	if elapsed := now - b.accStart; elapsed >= rtt && elapsed > 0 {
		bw := float64(b.accBytes*8) / elapsed.Seconds()
		// Large cumulative ACKs after SACK recovery credit megabytes in a
		// single sample; clamp at the modem's PHY ceiling so queue-flush
		// artifacts cannot poison the max filter (real BBR bounds samples
		// by the send rate of the matching flight).
		const phyCeilingBps = 1.3e9
		if bw > phyCeilingBps {
			bw = phyCeilingBps
		}
		b.pushBw(bw)
		b.accBytes = 0
		b.accStart = now
		b.advance(now, inflight)
	}

	// cwnd target: 2×BDP (high gain during startup).
	gain := 2.0
	if b.state == bbrStartup {
		gain = bbrHighGain
	}
	bdp := b.btlBw / 8 * b.rtProp.Seconds()
	target := int(gain * bdp)
	if b.state == bbrProbeRTT {
		target = 4 * SegBytes
	}
	if target < InitialWindow {
		target = InitialWindow
	}
	b.cwnd = target
}

// pushBw records a delivery-rate sample and refreshes the max filter.
func (b *BBR) pushBw(bw float64) {
	b.bwSamples = append(b.bwSamples, bw)
	if len(b.bwSamples) > bbrBwWindow {
		b.bwSamples = b.bwSamples[1:]
	}
	b.btlBw = 0
	for _, s := range b.bwSamples {
		if s > b.btlBw {
			b.btlBw = s
		}
	}
}

// advance runs the state machine once per delivery-rate sample.
func (b *BBR) advance(now time.Duration, inflight int) {
	switch b.state {
	case bbrStartup:
		// Full pipe: bandwidth grew <25 % for three consecutive samples.
		if b.btlBw > b.fullBwLast*1.25 {
			b.fullBwLast = b.btlBw
			b.fullBwCnt = 0
		} else {
			b.fullBwCnt++
			if b.fullBwCnt >= 3 {
				b.state = bbrDrain
			}
		}
	case bbrDrain:
		if float64(inflight) <= b.btlBw/8*b.rtProp.Seconds() {
			b.state = bbrProbeBW
			b.cycleIdx = 0
			b.cycleStamp = now
		}
	case bbrProbeBW:
		if now-b.cycleStamp > b.rtProp {
			b.cycleIdx = (b.cycleIdx + 1) % len(bbrCycleGains)
			b.cycleStamp = now
		}
		// Periodic PROBE_RTT when the RTprop estimate is stale.
		if now-b.rtPropStamp > bbrRTTWindow {
			b.state = bbrProbeRTT
			b.probeRTTDone = now + 200*time.Millisecond
		}
	case bbrProbeRTT:
		if now >= b.probeRTTDone {
			b.rtPropStamp = now
			b.state = bbrProbeBW
			b.cycleStamp = now
		}
	}
}

// OnLoss implements Controller. BBR v1 does not reduce its model on loss.
func (b *BBR) OnLoss(now time.Duration, inflight int) {}

// OnRTO implements Controller: conservative restart, keeping the model.
func (b *BBR) OnRTO(now time.Duration) {
	b.cwnd = InitialWindow
}

// Cwnd implements Controller.
func (b *BBR) Cwnd() int { return b.cwnd }

// PacingRate implements Controller.
func (b *BBR) PacingRate() float64 {
	if b.btlBw == 0 {
		// No estimate yet: pace aggressively from the initial window over
		// a nominal 10 ms RTT guess.
		return bbrHighGain * float64(InitialWindow*8) / 0.01
	}
	gain := 1.0
	switch b.state {
	case bbrStartup:
		gain = bbrHighGain
	case bbrDrain:
		gain = 1 / bbrHighGain
	case bbrProbeBW:
		gain = bbrCycleGains[b.cycleIdx]
	case bbrProbeRTT:
		gain = 1
	}
	return gain * b.btlBw
}
