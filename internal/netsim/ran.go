package netsim

import (
	"math/rand"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/obs"
	"fivegsim/internal/radio"
)

// RANHop models the radio access hop: a deep base-station buffer feeding
// the air interface. Every transport block goes through HARQ — losses on
// the air never surface to the transport layer ("we can safely conclude
// that the packet loss bottleneck is not on the 5G wireless link", §4.2) —
// but retransmissions consume airtime and add jitter. Its buffer is plain
// drop-tail: a packet is refused only when it does not fit.
type RANHop struct {
	queue

	harq          radio.HARQ
	harqRTT       time.Duration // per-retransmission round trip on the air
	airScale      float64
	rng           *rand.Rand
	lastDeliverAt time.Duration

	// The in-flight block's HARQ outcome and the retransmission latency
	// it accrued, drawn when it enters the serializer.
	inflightLost  bool
	inflightExtra time.Duration

	AttemptsHist [8]int64 // HARQ attempts histogram (index = attempts, capped)
	ResidualLoss int64

	cRetx *obs.Counter
}

// SetObs attaches the `netsim.*{hop=Name}` instruments of every hop, plus
// a HARQ retransmission counter (attempts beyond the first).
func (h *RANHop) SetObs(reg *obs.Registry) {
	h.queue.SetObs(reg)
	h.cRetx = reg.Counter("netsim.harq_retx{hop=" + h.Name + "}")
}

// NewRANHop builds the radio hop for a technology. rateBps is the
// foreground goodput of the air interface (PRB share and MCS already
// applied); use SetRate for time-varying goodput.
func NewRANHop(sch *des.Scheduler, tech radio.Tech, rateBps float64, prop time.Duration, limitBytes int, rng *rand.Rand, next Receiver) *RANHop {
	harqRTT := 8 * time.Millisecond // LTE HARQ round trip
	if tech == radio.NR {
		harqRTT = 2500 * time.Microsecond // NR slot-level feedback
	}
	harq := radio.HARQFor(tech)
	h := &RANHop{
		queue: newQueue(sch, tech.String()+"-RAN", rateBps, prop, limitBytes, 0, next),
		harq:  harq, harqRTT: harqRTT,
		// rateBps is the goodput; the air runs faster by the mean HARQ
		// attempt count so retransmission airtime is already budgeted.
		airScale: harq.MeanAttempts(),
		rng:      rng,
	}
	h.serveFn, h.txDoneFn = h.serve, h.txDone
	return h
}

// serve draws the head block's HARQ outcome and holds the serializer for
// the airtime of all its attempts.
func (h *RANHop) serve() {
	p, rate := h.head(h.rateBps * h.airScale)
	if p == nil {
		return
	}
	attempts, lost := h.harq.Attempts(h.rng.Float64())
	idx := attempts
	if idx >= len(h.AttemptsHist) {
		idx = len(h.AttemptsHist) - 1
	}
	h.AttemptsHist[idx]++
	if attempts > 1 {
		h.cRetx.Add(int64(attempts - 1))
	}
	// Each attempt occupies airtime; the scheduler's parallel HARQ
	// processes keep the link busy meanwhile, so the serializer is held
	// only for the airtime while the HARQ round trips show up as extra
	// per-packet latency (and mild reordering), not lost capacity.
	txTime := time.Duration(float64(p.Wire*8*attempts) / rate * float64(time.Second))
	h.inflightLost = lost
	h.inflightExtra = time.Duration(attempts-1) * h.harqRTT
	h.sch.After(txTime, h.txDoneFn)
}

func (h *RANHop) txDone() {
	p := h.inflight
	h.inflight = nil
	if h.inflightLost {
		h.ResidualLoss++ // probability ≈ 10⁻⁵⁶; tracked for completeness
		h.pool.Release(p)
	} else {
		h.cFwd.Inc()
		h.cBytes.Add(int64(p.Wire))
		// RLC in-order delivery: a block held up by HARQ round trips
		// also holds back its successors (head-of-line jitter), so
		// the transport layer never sees radio-induced reordering.
		deliverAt := h.sch.Now() + h.prop + h.inflightExtra
		if deliverAt < h.lastDeliverAt {
			deliverAt = h.lastDeliverAt
		}
		h.lastDeliverAt = deliverAt
		h.sch.AtArg(deliverAt, h.deliverFn, p)
	}
	h.serve()
}

// Retransmissions returns the HARQ attempts histogram normalized over
// blocks needing more than one attempt — the Fig. 10 series.
func (h *RANHop) Retransmissions() map[int]float64 {
	var total int64
	for _, c := range h.AttemptsHist {
		total += c
	}
	out := map[int]float64{}
	if total == 0 {
		return out
	}
	for attempts, c := range h.AttemptsHist {
		if attempts >= 2 && c > 0 {
			out[attempts-1] = float64(c) / float64(total)
		}
	}
	return out
}
