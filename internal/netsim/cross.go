package netsim

import (
	"math/rand"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/rng"
)

// CrossConfig describes the background traffic sharing the legacy Internet
// bottleneck. The paper attributes the 5G TCP anomaly to exactly this:
// routers provisioned for 4G-era flows overflow intermittently once a
// 5G-sized foreground flow removes the headroom that used to absorb
// bursts (§4.2).
//
// The aggregate is modelled as a modulated CBR: every Interval the rate is
// redrawn — usually a light load, occasionally a heavy busy period that
// pushes the link near (or past) line rate. It is the busy episodes,
// overlapping with a large foreground flow, that produce the bursty
// drop-tail losses of Fig. 11.
type CrossConfig struct {
	Interval   time.Duration // rate-modulation granularity
	PBusy      float64       // probability an interval is a busy period
	BusyLoBps  float64       // busy-period rate, uniform in [lo, hi]
	BusyHiBps  float64
	IdleHiBps  float64 // light load, uniform in [0, hi]
	PacketWire int
}

// DefaultCross returns the calibrated background mix for the 5G path:
// ≈15 % of time in 580–1150 Mb/s busy periods, light load otherwise. The
// Gbps-scale foreground flow leaves no headroom for these bursts, which is
// the §4.2 anomaly.
func DefaultCross() CrossConfig {
	return CrossConfig{
		Interval:   150 * time.Millisecond,
		PBusy:      0.15,
		BusyLoBps:  580e6,
		BusyHiBps:  1150e6,
		IdleHiBps:  110e6,
		PacketWire: MSS + HeaderBytes,
	}
}

// LegacyCross returns the background mix on the 4G path: similar busy
// cadence but bursts that stay below line rate minus a 4G-sized flow —
// the provisioning the wired Internet grew up with, under which a
// 130 Mb/s foreground barely ever collides with a burst.
func LegacyCross() CrossConfig {
	cfg := DefaultCross()
	cfg.BusyLoBps = 550e6
	cfg.BusyHiBps = 1020e6
	return cfg
}

// StartCross launches the modulated background source injecting into
// target. Packets are marked Background, drawn from pool (nil degrades to
// plain allocation), and terminate right after the bottleneck, where the
// path's demux recycles them.
func StartCross(sch *des.Scheduler, cfg CrossConfig, r *rand.Rand, pool *PacketPool, target Receiver) {
	if cfg.Interval <= 0 {
		return
	}
	// Cross traffic is emitted by a token-bucket pump at a fixed 1 ms
	// cadence, with each tick's packets spread evenly across the tick so
	// the aggregate looks like the paced mix of many senders.
	const pumpTick = time.Millisecond
	var rate float64
	var tokens float64 // accumulated bytes
	redraw := func() {
		if r.Float64() < cfg.PBusy {
			rate = rng.Uniform(r, cfg.BusyLoBps, cfg.BusyHiBps)
		} else {
			rate = rng.Uniform(r, 0, cfg.IdleHiBps)
		}
	}
	// emit is the single injection callback shared by every packet; the
	// origin timestamp is stamped at fire time, as before.
	emit := func(a any) {
		p := a.(*Packet)
		p.SentAt = sch.Now()
		target.Receive(p)
	}
	var pump func()
	pump = func() {
		tokens += rate / 8 * pumpTick.Seconds()
		n := int(tokens / float64(cfg.PacketWire))
		tokens -= float64(n * cfg.PacketWire)
		for i := 0; i < n; i++ {
			p := pool.Get()
			p.Wire, p.Background = cfg.PacketWire, true
			sch.AfterArg(time.Duration(i)*pumpTick/time.Duration(n), emit, p)
		}
		sch.After(pumpTick, pump)
	}
	var schedule func()
	schedule = func() {
		redraw()
		sch.After(cfg.Interval, schedule)
	}
	schedule()
	pump()
}
