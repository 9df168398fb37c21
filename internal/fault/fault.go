// Package fault is fivegsim's deterministic fault-injection subsystem.
//
// The paper's sharpest operational findings are failure-shaped: NSA
// hand-offs stall TCP for multiples of their signaling latency (§3.4,
// Fig. 12), coverage holes force UEs onto degraded 4G paths (§3.2), and
// the wired segment degrades rather than fails cleanly (§4.2). A Plan is
// a timed list of such adversities — link outages, loss and latency
// bursts, backhaul brownouts, radio degradation at the coverage edge,
// and serving-cell failures with 4G fallback — that is armed onto a
// netsim path (Hook) or onto a walking hand-off campaign
// (Plan.CellDown).
//
// Determinism contract: every random draw a plan makes comes from
// rng.Source substreams keyed by the path's seed and the fault's index
// within the plan, never from shared state, so a given (Seed, Plan)
// yields byte-identical reports at any worker count — the same contract
// internal/par documents for the campaign engine.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// LinkOutage interrupts the downlink radio for Dur (the data plane
	// of a hand-off or a short radio-link failure). The uplink radio hop
	// keeps serving, so ACKs still flow.
	LinkOutage Kind = iota
	// LossBurst drops packets arriving at the bottleneck i.i.d. with
	// LossRate for the window (transient congestion upstream).
	LossBurst
	// LatencyBurst adds Extra one-way delay at the bottleneck for the
	// window (routing change, queueing upstream of the model).
	LatencyBurst
	// WiredDegrade scales the bottleneck's serving rate by Scale for the
	// window (a backhaul brownout: degraded, not failed).
	WiredDegrade
	// RadioDegrade scales the air-interface rate by Scale for the window
	// (edge-of-coverage MCS collapse).
	RadioDegrade
	// CellFailure kills the serving cell: a radio-link-failure
	// re-establishment outage, then the calibrated daytime 4G rate until
	// the cell returns at the end of the window (with a re-addition
	// outage). On the campaign side the same fault carves PCI out of the
	// coverage map for the window (Plan.CellDown).
	CellFailure
)

var kindNames = [...]string{
	"link-outage", "loss-burst", "latency-burst",
	"wired-degrade", "radio-degrade", "cell-failure",
}

// String returns the kind's kebab-case name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Fault is one timed adversity. Only the fields relevant to Kind are
// consulted; see the Kind constants for which.
type Fault struct {
	Kind Kind
	// At is the window start in simulated time; Dur its length.
	At  time.Duration
	Dur time.Duration
	// LossRate is the i.i.d. drop probability of a LossBurst, in (0, 1].
	LossRate float64
	// Extra is the added one-way delay of a LatencyBurst.
	Extra time.Duration
	// Scale is the rate multiplier of WiredDegrade/RadioDegrade, in (0, 1).
	Scale float64
	// PCI is the failed cell of a CellFailure (campaign-side hole).
	PCI int
}

// ErrInvalidPlan is the sentinel wrapped by every Plan validation
// failure; match with errors.Is.
var ErrInvalidPlan = errors.New("fault: invalid plan")

// Plan is a named, ordered list of timed faults. The zero Plan is
// invalid; build one by hand, from a Scenario preset, or with the
// Outage/CoverageHole constructors.
type Plan struct {
	Name   string
	Faults []Fault
}

// Validate checks every fault's fields. The range checks are written so
// that NaN fails them, and a window must end at a representable time.
// All failures wrap ErrInvalidPlan and name the offending fault.
func (p *Plan) Validate() error {
	if p == nil {
		return fmt.Errorf("%w: nil plan", ErrInvalidPlan)
	}
	if len(p.Faults) == 0 {
		return fmt.Errorf("%w: %q has no faults", ErrInvalidPlan, p.Name)
	}
	for i, f := range p.Faults {
		bad := func(msg string) error {
			return fmt.Errorf("%w: %q fault %d (%s): %s", ErrInvalidPlan, p.Name, i, f.Kind, msg)
		}
		if f.At < 0 {
			return bad("negative start time")
		}
		if f.Dur <= 0 {
			return bad("non-positive duration")
		}
		if f.At > math.MaxInt64-f.Dur {
			return bad("window end overflows")
		}
		switch f.Kind {
		case LinkOutage, CellFailure:
			// At/Dur suffice.
		case LossBurst:
			if !(f.LossRate > 0 && f.LossRate <= 1) {
				return bad("loss rate outside (0, 1]")
			}
		case LatencyBurst:
			if f.Extra <= 0 {
				return bad("non-positive extra latency")
			}
		case WiredDegrade, RadioDegrade:
			if !(f.Scale > 0 && f.Scale < 1) {
				return bad("scale outside (0, 1)")
			}
		default:
			return bad("unknown kind")
		}
	}
	return nil
}

// Duration returns the end of the latest fault window.
func (p *Plan) Duration() time.Duration {
	var end time.Duration
	for _, f := range p.Faults {
		if f.At+f.Dur > end {
			end = f.At + f.Dur
		}
	}
	return end
}

// OutageTotal returns the total injected radio-outage time: LinkOutage
// windows plus the re-establishment and re-addition interruptions of
// every CellFailure.
func (p *Plan) OutageTotal() time.Duration {
	var total time.Duration
	for _, f := range p.Faults {
		switch f.Kind {
		case LinkOutage:
			total += f.Dur
		case CellFailure:
			total += 2 * ReestablishLatency
		}
	}
	return total
}

// DownPCIs returns the sorted, de-duplicated PCIs carved out by the
// plan's CellFailure faults (nil for a nil plan).
func (p *Plan) DownPCIs() []int {
	if p == nil {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for _, f := range p.Faults {
		if f.Kind == CellFailure && !seen[f.PCI] {
			seen[f.PCI] = true
			out = append(out, f.PCI)
		}
	}
	sort.Ints(out)
	return out
}

// CellDown reports whether pci is inside any CellFailure window at the
// given campaign time — the predicate handoff.Config.CellDown expects.
func (p *Plan) CellDown(pci int, at time.Duration) bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.Kind == CellFailure && f.PCI == pci && at >= f.At && at < f.At+f.Dur {
			return true
		}
	}
	return false
}

// FallbackAt reports whether the path is inside a CellFailure fallback
// window at the given time (used to attribute the 4G energy envelope).
func (p *Plan) FallbackAt(at time.Duration) bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.Kind == CellFailure && at >= f.At && at < f.At+f.Dur {
			return true
		}
	}
	return false
}

// WiredBrownout aggregates the plan's wired-segment faults into
// probe-level degradation terms for internal/wire: the summed
// LatencyBurst RTT inflation and a queueing-jitter scale of 1/Scale for
// the deepest WiredDegrade (a browned-out segment drains slower, so
// probes see proportionally more queueing).
func (p *Plan) WiredBrownout() (extraRTT time.Duration, jitterScale float64) {
	jitterScale = 1
	for _, f := range p.Faults {
		switch f.Kind {
		case LatencyBurst:
			extraRTT += 2 * f.Extra
		case WiredDegrade:
			if s := 1 / f.Scale; s > jitterScale {
				jitterScale = s
			}
		}
	}
	return extraRTT, jitterScale
}

// Outage returns a plan with a single radio outage of the given
// duration — the building block of the outage-vs-stall curves.
func Outage(name string, at, dur time.Duration) *Plan {
	return &Plan{Name: name, Faults: []Fault{{Kind: LinkOutage, At: at, Dur: dur}}}
}

// CoverageHole returns a plan that fails the given cells for the whole
// window [0, dur) — the campaign-side hole that triggers hand-off
// storms and 4G dwell.
func CoverageHole(name string, dur time.Duration, pcis ...int) *Plan {
	p := &Plan{Name: name}
	for _, pci := range pcis {
		p.Faults = append(p.Faults, Fault{Kind: CellFailure, At: 0, Dur: dur, PCI: pci})
	}
	return p
}
