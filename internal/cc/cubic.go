package cc

import (
	"math"
	"time"
)

// Cubic implements TCP CUBIC (RFC 8312): after a loss the window follows
// W(t) = C·(t−K)³ + Wmax, concave up to the previous maximum and convex
// beyond it, with a TCP-friendly lower bound.
type Cubic struct {
	cwnd      float64 // bytes
	ssthresh  float64
	wMax      float64
	epochAt   time.Duration
	k         float64 // seconds
	inEpoch   bool
	friendlyW float64
}

// Cubic constants per RFC 8312 (β = 0.7, C = 0.4 in segments/s³).
const (
	cubicBeta = 0.7
	cubicC    = 0.4
)

// NewCubic returns a CUBIC controller.
func NewCubic() *Cubic {
	return &Cubic{cwnd: InitialWindow, ssthresh: 1 << 30}
}

// Name implements Controller.
func (c *Cubic) Name() string { return "cubic" }

// OnAck implements Controller.
func (c *Cubic) OnAck(now time.Duration, acked int, rtt time.Duration, inflight int) {
	if c.cwnd < c.ssthresh {
		c.cwnd += float64(acked)
		return
	}
	if !c.inEpoch {
		c.inEpoch = true
		c.epochAt = now
		if c.wMax < c.cwnd {
			c.wMax = c.cwnd
		}
		c.k = math.Cbrt(c.wMax / float64(SegBytes) * (1 - cubicBeta) / cubicC)
		c.friendlyW = c.cwnd
	}
	t := (now - c.epochAt).Seconds()
	target := cubicC*math.Pow(t-c.k, 3) + c.wMax/float64(SegBytes) // segments
	targetBytes := target * SegBytes
	// TCP-friendly region: grow at least like Reno with β=0.7.
	c.friendlyW += 3 * (1 - cubicBeta) / (1 + cubicBeta) * float64(SegBytes) * float64(acked) / c.cwnd
	if targetBytes < c.friendlyW {
		targetBytes = c.friendlyW
	}
	if targetBytes > c.cwnd {
		// Approach the cubic target over one RTT.
		c.cwnd += (targetBytes - c.cwnd) * float64(acked) / c.cwnd
	} else {
		c.cwnd += float64(SegBytes) * float64(acked) / (100 * c.cwnd) // probe slowly
	}
}

// OnLoss implements Controller.
func (c *Cubic) OnLoss(now time.Duration, inflight int) {
	// Fast convergence: remember a reduced Wmax when losses come before
	// regaining the previous maximum.
	if c.cwnd < c.wMax {
		c.wMax = c.cwnd * (1 + cubicBeta) / 2
	} else {
		c.wMax = c.cwnd
	}
	c.cwnd *= cubicBeta
	if c.cwnd < MinWindow {
		c.cwnd = MinWindow
	}
	c.ssthresh = c.cwnd
	c.inEpoch = false
}

// OnRTO implements Controller.
func (c *Cubic) OnRTO(now time.Duration) {
	c.wMax = c.cwnd
	c.ssthresh = c.cwnd * cubicBeta
	if c.ssthresh < MinWindow {
		c.ssthresh = MinWindow
	}
	c.cwnd = MinWindow
	c.inEpoch = false
}

// Cwnd implements Controller.
func (c *Cubic) Cwnd() int { return int(c.cwnd) }

// PacingRate implements Controller.
func (c *Cubic) PacingRate() float64 { return 0 }
