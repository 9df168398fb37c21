package fault

import (
	"strconv"
	"time"

	"fivegsim/internal/des"
	"fivegsim/internal/netsim"
	"fivegsim/internal/radio"
	"fivegsim/internal/rng"
)

// ReestablishLatency is the radio-link-failure interruption of a
// CellFailure: T310 expiry plus RRC re-establishment on the fallback
// cell. Far longer than a prepared hand-off (the ladders of Fig. 6),
// which is exactly why unplanned cell failures hurt more than the
// hand-offs the paper measures.
const ReestablishLatency = 200 * time.Millisecond

// fallbackRateBps is the calibrated daytime 4G downlink rate, the
// post-failover goodput when a CellFailure leaves FallbackBps zero.
var fallbackRateBps = netsim.DefaultPath(radio.LTE, true).RANRateBps

// Hook adapts a plan to the netsim.PathConfig.Inject attachment point:
// every path built with this hook arms the plan against its own
// scheduler, keyed by its own PathConfig.Seed. Paths are independent
// DES worlds, so arming per path preserves worker-count invariance.
func Hook(p *Plan) func(sch *des.Scheduler, path *netsim.Path) {
	return func(sch *des.Scheduler, path *netsim.Path) { arm(p, sch, path) }
}

// arm schedules every fault of the plan onto the path's scheduler.
// Random draws (loss-burst coin flips) come from substreams keyed by
// the path seed and the fault index. Fault activations are counted as
// `fault.windows{kind=...}` on the path's registry and appear as
// `fault` category spans on its tracer; both are nil-safe no-ops when
// telemetry is off.
func arm(p *Plan, sch *des.Scheduler, path *netsim.Path) {
	if p == nil || len(p.Faults) == 0 {
		return
	}
	src := rng.New(path.Cfg.Seed)
	reg, tr := path.Cfg.Obs, path.Cfg.Trace
	for i, f := range p.Faults {
		f := f
		cWin := reg.Counter("fault.windows{kind=" + f.Kind.String() + "}")
		tr.Span("fault "+f.Kind.String(), "fault", f.At, f.Dur)
		switch f.Kind {
		case LinkOutage:
			sch.At(f.At, func() {
				cWin.Inc()
				path.Outage(f.Dur)
			})
		case LossBurst:
			h := hopOf(path, f.Hop)
			r := src.Stream("fault." + strconv.Itoa(i) + ".loss")
			sch.At(f.At, func() {
				cWin.Inc()
				h.SetInjectLoss(f.LossRate, r)
			})
			sch.At(f.At+f.Dur, func() { h.SetInjectLoss(0, nil) })
		case LatencyBurst:
			h := hopOf(path, f.Hop)
			sch.At(f.At, func() {
				cWin.Inc()
				h.SetExtraProp(f.Extra)
			})
			sch.At(f.At+f.Dur, func() { h.SetExtraProp(0) })
		case WiredDegrade:
			sch.At(f.At, func() {
				cWin.Inc()
				path.Bottleneck.SetRateScale(f.Scale)
			})
			sch.At(f.At+f.Dur, func() { path.Bottleneck.SetRateScale(1) })
		case RadioDegrade:
			sch.At(f.At, func() {
				cWin.Inc()
				path.RAN.SetRateScale(f.Scale)
			})
			sch.At(f.At+f.Dur, func() { path.RAN.SetRateScale(1) })
		case CellFailure:
			sch.At(f.At, func() {
				cWin.Inc()
				// Capture the pre-failure rate at failure time so a
				// preceding fault's rate change is restored correctly.
				prev := path.Cfg.RANRateBps
				fb := f.FallbackBps
				if fb == 0 {
					fb = fallbackRateBps
				}
				path.Outage(ReestablishLatency)
				path.SetRANRate(fb)
				sch.At(f.At+f.Dur, func() {
					// The cell returns: an SgNB re-addition interruption,
					// then the original rate.
					path.Outage(ReestablishLatency)
					path.SetRANRate(prev)
				})
			})
		}
	}
}

// hopOf resolves a Fault.Hop name against the path's wired hops.
func hopOf(path *netsim.Path, name string) *netsim.Hop {
	if name == HopUplink {
		return path.UplinkRAN
	}
	return path.Bottleneck
}
