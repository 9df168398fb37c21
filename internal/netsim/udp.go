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
	// LossRuns lists the runs of consecutive lost datagrams in arrival
	// order — the burstiness measure behind Fig. 11. A run is recorded
	// when a datagram arrives more than one sequence number after the
	// previous arrival.
	LossRuns []LossRun
}

// LossRun is a run of consecutive lost datagrams: Len sequence numbers
// from First.
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
// duration and reports delivery statistics and the loss runs.
func RunUDP(cfg PathConfig, offeredBps float64, duration time.Duration) UDPResult {
	sch := des.New()
	path := NewPath(sch, cfg)

	res := UDPResult{OfferedBps: offeredBps}
	var receivedBytes int64
	prev := int64(-1)
	path.ToUE = ReceiverFunc(func(p *Packet) {
		res.Received++
		receivedBytes += int64(p.Len)
		if prev >= 0 && p.Seq > prev+1 {
			res.LossRuns = append(res.LossRuns, LossRun{First: prev + 1, Len: int(p.Seq - prev - 1)})
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
	return RunUDP(cfg, cfg.RANRateBps*1.08, duration)
}
