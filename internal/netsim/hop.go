package netsim

import (
	"time"

	"fivegsim/internal/des"
)

// Hop is one wired store-and-forward element: a drop-tail buffer feeding
// a fixed-rate serializer, followed by a propagation delay. It is the
// router model under the paper's §4.2 buffer analysis.
type Hop struct {
	queue
	extraProp time.Duration // latency-burst window; 0 when unfaulted
}

// reliefBytes caps the wired hop's overflow watermark, which is
// min(reliefBytes, limit/2). Hardware queues commonly drop until a
// watermark clears; this lockout is what turns an overflow episode into
// a run of consecutive foreground losses (the bursty pattern of Fig. 11).
const reliefBytes = 64 << 10

// NewHop creates a hop serving at rateBps with the given propagation
// delay and buffer limit. Use SetRate for time-varying links.
func NewHop(sch *des.Scheduler, name string, rateBps float64, prop time.Duration, limitBytes int, next Receiver) *Hop {
	h := &Hop{queue: newQueue(sch, name, rateBps, prop, limitBytes, min(reliefBytes, limitBytes/2), next)}
	h.serveFn, h.txDoneFn = h.serve, h.txDone
	return h
}

// SetExtraProp adds d to the propagation delay of every subsequent
// delivery (a latency-burst window); d = 0 restores the baseline.
func (h *Hop) SetExtraProp(d time.Duration) { h.extraProp = d }

// serve starts transmitting the head-of-line packet at the line rate.
func (h *Hop) serve() {
	p, rate := h.head(h.rateBps)
	if p == nil {
		return
	}
	txTime := time.Duration(float64(p.Wire*8) / rate * float64(time.Second))
	h.sch.After(txTime, h.txDoneFn)
}

// txDone hands the sent packet to the propagation stage and starts the
// next. Deliveries keep no order: packets sent after a latency burst
// overtake those sent inside it.
func (h *Hop) txDone() {
	p := h.inflight
	h.inflight = nil
	h.propagate(p, h.sch.Now()+h.prop+h.extraProp)
	h.serve()
}
