package netsim

import (
	"time"

	"fivegsim/internal/des"
)

// UDPResult summarizes an iperf3-style constant-rate UDP run.
type UDPResult struct {
	OfferedBps   float64
	DeliveredBps float64
	Sent         int64
	Received     int64
	LossRate     float64
}

// LossRun is a run of consecutive lost datagrams: Len sequence numbers
// from First. Runs are the burstiness measure behind Fig. 11.
type LossRun struct {
	First int64
	Len   int
}

// StartCBR starts a constant-bit-rate sender on the path: one full-size
// datagram of flow 1, with consecutive Seq from 0 and SentAt stamped,
// enters the server ingress every (MSS+HeaderBytes)·8/offeredBps of
// simulated time until the clock reaches until. The first datagram is
// sent before StartCBR returns. The returned count of datagrams sent
// grows as the scheduler runs.
func (p *Path) StartCBR(offeredBps float64, until time.Duration) (sent *int64) {
	interval := time.Duration(float64((MSS+HeaderBytes)*8) / offeredBps * float64(time.Second))
	sent = new(int64)
	var tick func()
	tick = func() {
		now := p.Sch.Now()
		if now >= until {
			return
		}
		pkt := p.Pool.Get()
		pkt.Seq, pkt.Len, pkt.Wire, pkt.SentAt = *sent, MSS, MSS+HeaderBytes, now
		p.ServerIngress.Receive(pkt)
		*sent++
		p.Sch.After(interval, tick)
	}
	tick()
	return sent
}

// RunUDP sends CBR traffic at offeredBps over a fresh path for the given
// duration and reports delivery statistics. Unless lost is nil, it calls
// lost once per run of consecutive lost datagrams, in arrival order, as
// the datagram that ends the run arrives: one more than one sequence
// number after the previous arrival.
func RunUDP(cfg PathConfig, offeredBps float64, duration time.Duration, lost func(LossRun)) UDPResult {
	sch := des.New()
	path := NewPath(sch, cfg)
	defer path.Close()

	res := UDPResult{OfferedBps: offeredBps}
	var receivedBytes int64
	prev := int64(-1)
	path.ToUE = ReceiverFunc(func(p *Packet) {
		res.Received++
		receivedBytes += int64(p.Len)
		if lost != nil && prev >= 0 && p.Seq > prev+1 {
			lost(LossRun{First: prev + 1, Len: int(p.Seq - prev - 1)})
		}
		prev = p.Seq
	})
	sent := path.StartCBR(offeredBps, duration)

	// Run past the nominal duration so in-flight packets drain.
	sch.RunUntil(duration + time.Second)

	res.Sent = *sent
	if res.Sent > 0 {
		res.LossRate = 1 - float64(res.Received)/float64(res.Sent)
	}
	res.DeliveredBps = float64(receivedBytes*8) / duration.Seconds()
	return res
}

// UDPBaseline measures the peak deliverable UDP throughput of a path by
// offering slightly more than the radio can carry, mirroring the paper's
// "gradually increase the UDP sending rate" methodology (§4.1).
func UDPBaseline(cfg PathConfig, duration time.Duration) UDPResult {
	return RunUDP(cfg, cfg.RANRateBps*1.08, duration, nil)
}
