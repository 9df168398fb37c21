package cc

import (
	"time"

	"fivegsim/internal/obs"
)

// instrumented wraps a Controller and samples its state into an
// obs.Registry under the `cc.*{algo=name}` namespace at every ACK: a
// cwnd histogram and an RTT histogram in microseconds. The ACK, loss
// and RTO counts are the transport's own (transport.Conn publishes
// them).
type instrumented struct {
	Controller
	cwnd *obs.Histogram
	rtt  *obs.Histogram
}

// Instrument returns c with telemetry attached. A nil registry (or nil
// controller) returns c unchanged, so the uninstrumented path stays
// wrapper-free.
func Instrument(c Controller, reg *obs.Registry) Controller {
	if c == nil || reg == nil {
		return c
	}
	label := "{algo=" + c.Name() + "}"
	return &instrumented{
		Controller: c,
		cwnd:       reg.Histogram("cc.cwnd_bytes"+label, obs.ByteBuckets),
		rtt:        reg.Histogram("cc.rtt_us"+label, obs.DurationBuckets),
	}
}

func (i *instrumented) OnAck(now time.Duration, ackedBytes int, rtt time.Duration, inflight int) {
	i.Controller.OnAck(now, ackedBytes, rtt, inflight)
	i.rtt.Observe(float64(rtt) / float64(time.Microsecond))
	i.cwnd.Observe(float64(i.Controller.Cwnd()))
}
