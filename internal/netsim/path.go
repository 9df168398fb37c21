package netsim

import (
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
	// every hop and scheduler this path is built on. Trace additionally
	// records every outage, and every window of a fault plan armed on
	// the path, as a span in the bounded trace ring. Both default to off.
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

	// Pool recycles every packet the path carries (TCP segments and
	// ACKs, UDP load and cross traffic); see PacketPool for the
	// ownership rule.
	Pool *PacketPool
}

// NewPath wires up the downlink chain
//
//	server → wired → [bottleneck+cross] → core → RAN → UE
//
// and the uplink chain UE → UL-RAN → core+wired → server.
func NewPath(sch *des.Scheduler, cfg PathConfig) *Path {
	p := &Path{Sch: sch, Cfg: cfg, Pool: NewPacketPool()}
	src := rng.New(cfg.Seed)

	if cfg.Obs != nil {
		sch.SetObs(cfg.Obs)
	}
	// A path carries one foreground flow, so every packet delivered to
	// the UE is its payload. The series keeps its flow label so that
	// result files line up with those of older builds.
	flowBytes := cfg.Obs.Counter("netsim.flow_bytes{flow=1}")

	// Downlink, built back to front. The endpoint wrappers are where
	// pool-owned packets finish their life: released after the consumer
	// callback returns (consumers copy what they need synchronously).
	ueDeliver := ReceiverFunc(func(pkt *Packet) {
		flowBytes.Add(int64(pkt.Len))
		if p.ToUE != nil {
			p.ToUE.Receive(pkt)
		}
		p.Pool.Release(pkt)
	})
	p.RAN = NewRANHop(sch, cfg.Tech, cfg.RANRateBps,
		cfg.RANOneWay, cfg.RANBufferBytes, src.Stream("ran.harq"), ueDeliver)

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

	StartCross(sch, cfg.Cross, src.Stream("cross"), p.Pool, p.Bottleneck)

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

	for _, h := range []*Hop{core, p.Bottleneck, serverWired, ulWired, p.UplinkRAN} {
		h.SetPool(p.Pool)
	}
	p.RAN.SetPool(p.Pool)

	if cfg.Obs != nil {
		p.RAN.SetObs(cfg.Obs)
		core.SetObs(cfg.Obs)
		p.Bottleneck.SetObs(cfg.Obs)
		serverWired.SetObs(cfg.Obs)
		ulWired.SetObs(cfg.Obs)
		p.UplinkRAN.SetObs(cfg.Obs)
	}

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
