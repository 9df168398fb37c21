package netsim

import (
	"math/rand"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/obs"
	"fivegsim/internal/radio"
	"fivegsim/internal/rng"
)

// PathConfig describes one end-to-end path between the cloud server and
// the UE, per technology and time of day. Defaults are calibrated to the
// paper's measurements (see DefaultPath).
type PathConfig struct {
	Tech radio.Tech

	// Downlink radio goodput available to the foreground UE (PRB share
	// and MCS applied): the UDP baselines of Fig. 7.
	RANRateBps     float64
	RANBufferBytes int
	RANOneWay      time.Duration

	// CoreOneWay is the gNB/eNB → packet core latency: the paper's Fig. 14
	// shows the 5G flat architecture takes ≈20 ms (RTT) out of this hop.
	CoreOneWay time.Duration

	// The legacy Internet bottleneck.
	BottleneckBps         float64
	BottleneckBufferBytes int
	BottleneckOneWay      time.Duration

	// ServerOneWay covers the remaining wired hops to the cloud server.
	ServerOneWay time.Duration

	// Uplink capacity (carries ACKs and uplink video).
	ULRateBps float64

	Cross CrossConfig
	Seed  int64

	// Obs, when non-nil, collects `des.*` and `netsim.*` metrics for
	// every hop and scheduler this path is built on: the hops'
	// occupancy histograms as packets arrive, and every count when the
	// path closes. Trace additionally records every outage, and every
	// window of a fault plan armed on the path, as a span in the
	// bounded trace ring. Both default to off.
	Obs   *obs.Registry
	Trace *obs.Tracer

	// Inject, when non-nil, is invoked once by NewPath after the path is
	// wired up, before any traffic flows. It is the fault-injection
	// attachment point (internal/fault schedules its timed faults here);
	// netsim itself knows nothing about fault plans. Nil is the exact
	// pre-fault behaviour.
	Inject func(sch *des.Scheduler, p *Path)
}

// DefaultPath returns the calibrated path for a technology/time of day.
//
// Calibration targets (paper §4): UDP DL baselines 880/900 Mb/s (5G
// day/night) and 130/200 Mb/s (4G); UL 130/130 and 50/100 Mb/s; one-way
// path latency ≈21.8 ms (5G) with the 4G path ≈22 ms RTT slower, of which
// the RAN accounts for 2.19 vs 2.6 ms RTT and the core hop the bulk
// (Fig. 14); a 1 Gb/s wired bottleneck whose buffer is provisioned for
// 4G-era flows.
func DefaultPath(tech radio.Tech, daytime bool) PathConfig {
	cfg := PathConfig{
		Tech:             tech,
		BottleneckBps:    1e9,
		BottleneckOneWay: 3 * time.Millisecond,
		ServerOneWay:     4 * time.Millisecond,
		Cross:            DefaultCross(),
		Seed:             1,
	}
	if tech == radio.LTE {
		cfg.Cross = LegacyCross()
	}
	if tech == radio.NR {
		if daytime {
			cfg.RANRateBps = 880e6
		} else {
			cfg.RANRateBps = 900e6
		}
		cfg.ULRateBps = 130e6
		cfg.RANBufferBytes = 3_750_000 // ≈5× the 4G RAN buffer (Table 3)
		cfg.RANOneWay = 1100 * time.Microsecond
		cfg.CoreOneWay = 2500 * time.Microsecond
		cfg.BottleneckBufferBytes = 1_600_000 // ≈2.5× the 4G path's (Table 3)
	} else {
		if daytime {
			cfg.RANRateBps = 132e6
			cfg.ULRateBps = 50e6
		} else {
			cfg.RANRateBps = 202e6
			cfg.ULRateBps = 100e6
		}
		cfg.RANBufferBytes = 2_000_000
		cfg.RANOneWay = 1300 * time.Microsecond
		cfg.CoreOneWay = 13500 * time.Microsecond
		cfg.BottleneckBufferBytes = 640_000
	}
	return cfg
}

// BaseRTT returns the no-queueing round-trip time of the path.
func (c PathConfig) BaseRTT() time.Duration {
	oneWay := c.RANOneWay + c.CoreOneWay + c.BottleneckOneWay + c.ServerOneWay
	return 2 * oneWay
}

// Path is a built end-to-end path running on a shared scheduler.
type Path struct {
	Sch *des.Scheduler
	Cfg PathConfig

	// ServerIngress accepts downlink packets from the server-side sender.
	ServerIngress Receiver
	// UEIngress accepts uplink packets from the UE (ACKs, uplink video).
	UEIngress Receiver

	// ToUE / ToServer are set by the endpoints to receive deliveries.
	ToUE     Receiver
	ToServer Receiver

	Bottleneck *Hop
	RAN        *RANHop
	UplinkRAN  *Hop
	hops       [5]*Hop // every Hop of the path, the two above included
	// flowBytes is the payload delivered to the UE: a path carries one
	// foreground flow.
	flowBytes int64

	// Pool recycles every packet the path carries (TCP segments and
	// ACKs, UDP load and cross traffic); see PacketPool for the
	// ownership rule.
	Pool *PacketPool

	harq, cross *rand.Rand // the RAN's HARQ draws and the cross-traffic pump's
	onClose     []func()
}

// Close publishes what the path counted and hands on what it grew that
// no result keeps, to the next path built on any goroutine: it runs the
// functions registered with OnClose, adds each hop's counts and the
// flow's bytes to Cfg.Obs, releases the path's two generators and its
// packet slabs, and releases its scheduler, which adds its own counts to
// Cfg.Obs and hands on its heap. Call it once the path's scheduler will
// not run again: no packet of a closed path, delivered, queued or in
// flight, may be used afterwards, and the path must carry no more
// traffic. Closing again does nothing, so every count is published once
// and what the path grew is handed on once. Paths that share a
// scheduler release it with the first Close. A path that is never
// closed publishes nothing and is collected as garbage like any other
// value.
func (p *Path) Close() {
	if p.harq == nil {
		return // closed already
	}
	for _, f := range p.onClose {
		f()
	}
	if reg := p.Cfg.Obs; reg != nil {
		p.RAN.publish(reg)
		for _, h := range p.hops {
			h.publish(reg)
		}
		// The series keeps its flow label so that result files line up
		// with those of older builds.
		reg.Counter("netsim.flow_bytes{flow=1}").Add(p.flowBytes)
	}
	rng.Release(p.harq)
	rng.Release(p.cross)
	p.harq, p.cross, p.onClose = nil, nil, nil
	p.Sch.Release(p.Cfg.Obs)
	p.Pool.close()
}

// OnClose registers f to run when the path is closed, before its
// storage is handed on: an endpoint hands on its own storage there.
func (p *Path) OnClose(f func()) { p.onClose = append(p.onClose, f) }

// NewPath wires up the downlink chain
//
//	server → wired → [bottleneck+cross] → core → RAN → UE
//
// and the uplink chain UE → UL-RAN → core+wired → server.
func NewPath(sch *des.Scheduler, cfg PathConfig) *Path {
	src := rng.New(cfg.Seed)
	p := &Path{Sch: sch, Cfg: cfg, Pool: NewPacketPool(),
		harq: src.Stream("ran.harq"), cross: src.Stream("cross")}

	// Downlink, built back to front. The endpoint wrappers are where
	// pool-owned packets finish their life: released after the consumer
	// callback returns (consumers copy what they need synchronously).
	ueDeliver := ReceiverFunc(func(pkt *Packet) {
		p.flowBytes += int64(pkt.Len)
		if p.ToUE != nil {
			p.ToUE.Receive(pkt)
		}
		p.Pool.Release(pkt)
	})
	p.RAN = NewRANHop(sch, cfg.Tech, cfg.RANRateBps,
		cfg.RANOneWay, cfg.RANBufferBytes, p.harq, ueDeliver)

	core := NewHop(sch, "core", 10e9, cfg.CoreOneWay, 64_000_000, p.RAN)

	demux := ReceiverFunc(func(pkt *Packet) {
		if pkt.Background {
			p.Pool.Release(pkt)
			return
		}
		core.Receive(pkt)
	})
	p.Bottleneck = NewHop(sch, "bottleneck", cfg.BottleneckBps,
		cfg.BottleneckOneWay, cfg.BottleneckBufferBytes, demux)

	serverWired := NewHop(sch, "server-wired", 10e9, cfg.ServerOneWay, 64_000_000, p.Bottleneck)
	p.ServerIngress = serverWired

	StartCross(sch, cfg.Cross, p.cross, p.Pool, p.Bottleneck)

	// Uplink.
	serverDeliver := ReceiverFunc(func(pkt *Packet) {
		if p.ToServer != nil {
			p.ToServer.Receive(pkt)
		}
		p.Pool.Release(pkt)
	})
	ulWired := NewHop(sch, "ul-wired", 10e9,
		cfg.CoreOneWay+cfg.BottleneckOneWay+cfg.ServerOneWay, 64_000_000, serverDeliver)
	p.UplinkRAN = NewHop(sch, "ul-ran", cfg.ULRateBps,
		cfg.RANOneWay, 2_000_000, ulWired)
	p.UEIngress = p.UplinkRAN

	p.hops = [...]*Hop{core, p.Bottleneck, serverWired, ulWired, p.UplinkRAN}
	for _, h := range p.hops {
		h.SetPool(p.Pool)
		h.SetObs(cfg.Obs)
	}
	p.RAN.SetPool(p.Pool)
	p.RAN.SetObs(cfg.Obs)

	if cfg.Inject != nil {
		cfg.Inject(sch, p)
	}

	return p
}

// SetRANRate changes the downlink radio goodput (e.g. PRB contention or a
// weaker MCS after movement).
func (p *Path) SetRANRate(bps float64) {
	p.Cfg.RANRateBps = bps
	p.RAN.SetRate(bps)
}

// Outage interrupts the downlink radio for d (hand-off). The uplink radio
// hop keeps serving, so ACKs still reach the server during the outage.
func (p *Path) Outage(d time.Duration) {
	p.Cfg.Trace.Span("outage", "netsim", p.Sch.Now(), d)
	p.RAN.SetOutage(d)
}
