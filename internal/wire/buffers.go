package wire

import (
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/netsim"
)

// BufferEstimate reproduces Table 3: in-network buffer sizes estimated by
// the classical max-min delay method — the largest queueing delay observed
// on a segment times an assumed 1 Gb/s capacity, expressed in 60-byte
// packets, exactly the paper's accounting.
type BufferEstimate struct {
	RAN       int
	Wired     int
	WholePath int
}

// estimation constants per the paper: "the result is derived under the
// assumption of 1 Gbps path capacity and also 60 Bytes packet size".
const (
	assumedCapacityBps = 1e9
	assumedPacketBytes = 60
)

// EstimateBuffers loads the path to 90 % of its baseline (so the wired
// bottleneck exercises its depth during cross-traffic episodes while the
// RAN queue stays transient) for the given duration, sampling per-segment
// queueing delay every 10 ms, then converts max-min delay into the
// Table 3 packet counts.
func EstimateBuffers(cfg netsim.PathConfig, duration time.Duration) BufferEstimate {
	sch := des.New()
	path := netsim.NewPath(sch, cfg)
	path.StartCBR(cfg.RANRateBps*0.90, duration)

	var ranMaxDelay, wiredMaxDelay float64 // seconds
	var sample func()
	sample = func() {
		if sch.Now() >= duration {
			return
		}
		if d := float64(path.RAN.QueuedBytes()*8) / cfg.RANRateBps; d > ranMaxDelay {
			ranMaxDelay = d
		}
		if d := float64(path.Bottleneck.QueuedBytes()*8) / cfg.BottleneckBps; d > wiredMaxDelay {
			wiredMaxDelay = d
		}
		sch.After(10*time.Millisecond, sample)
	}
	sample()
	sch.RunUntil(duration)

	toPackets := func(delaySec float64) int {
		return int(delaySec * assumedCapacityBps / 8 / assumedPacketBytes)
	}
	est := BufferEstimate{
		RAN:   toPackets(ranMaxDelay),
		Wired: toPackets(wiredMaxDelay),
	}
	est.WholePath = est.RAN + est.Wired
	return est
}
