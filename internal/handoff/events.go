// Package handoff implements the paper's §3.4 mobility study: the 3GPP
// measurement-report events (Table 5), the A3 trigger rule of Eq. (1) with
// the ISP's 3 dB / 324 ms configuration, the NSA signaling procedures
// reverse-engineered in Appendix A (Fig. 24), and the walking measurement
// campaign that yields the RSRQ-gap (Fig. 5) and latency (Fig. 6) CDFs.
package handoff

import "time"

// EventType is a 3GPP measurement-report event (Table 5 of the paper).
type EventType int

const (
	// A1: serving cell quality above a threshold (stop measuring).
	A1 EventType = iota
	// A2: serving cell quality below a threshold (start measuring).
	A2
	// A3: neighbor persistently better than serving — the main HO trigger.
	A3
	// A4: neighbor above an absolute threshold.
	A4
	// A5: serving below threshold1 while neighbor above threshold2.
	A5
	// B1: inter-RAT neighbor above a threshold.
	B1
	// B2: serving below threshold1 while inter-RAT neighbor above threshold2.
	B2
)

var eventNames = [...]string{"A1", "A2", "A3", "A4", "A5", "B1", "B2"}

// String returns the 3GPP event name.
func (e EventType) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return "?"
}

// Description returns the Table 5 description of the event.
func (e EventType) Description() string {
	switch e {
	case A1:
		return "serving cell quality higher than a threshold; UE may stop neighbor measurement to save energy"
	case A2:
		return "serving cell quality lower than a threshold; UE starts measuring neighbors"
	case A3:
		return "neighbor persistently better than serving cell by an offset; the main hand-off event"
	case A4:
		return "one neighbor's quality higher than a fixed threshold"
	case A5:
		return "serving below threshold1 while a neighbor is above threshold2"
	case B1:
		return "inter-RAT neighbor better than a fixed threshold"
	case B2:
		return "serving below threshold1 while an inter-RAT neighbor is above threshold2"
	}
	return ""
}

// A3Config is the ISP's A3 configuration as extracted with XCAL-Mobile:
// Eq. (1) Mn + Ofn + Ocn − Hys > Ms + Ofs + Ocs + Off, with the effective
// RSRQ gap threshold at 3 dB, sustained for TimeToTrigger = 324 ms.
type A3Config struct {
	GapDB         float64       // required RSRQ advantage of the neighbor
	TimeToTrigger time.Duration // hysteresis in time
}

// DefaultA3 returns the measured ISP configuration.
func DefaultA3() A3Config {
	return A3Config{GapDB: 3, TimeToTrigger: 324 * time.Millisecond}
}

// A1ThresholdDB / A2ThresholdDB are the serving-quality RSRQ thresholds
// used for the A1/A2 bookkeeping events, and the A5 thresholds complete
// the Table 5 set. B1 has no Table 5 threshold here: it fires when the
// best NR cell's RSRP clears the NR-add level, nrAddRSRP (campaign.go).
// Only A3 triggers hand-offs in the measured network ("the gNB only
// responds to the A3 event due to the ISP's configuration").
const (
	A1ThresholdDB = -10.4
	A2ThresholdDB = -23.5
	A5Threshold1  = -12.8
	A5Threshold2  = -13.2
)

// A3Tracker applies Eq. (1) with time-to-trigger over a sampled RSRQ
// series: Observe is called once per measurement interval with the serving
// and best-neighbor RSRQ; it returns true when the A3 condition has held
// continuously for TimeToTrigger.
type A3Tracker struct {
	cfg     A3Config
	heldFor time.Duration
}

// NewA3Tracker returns a tracker with the given configuration.
func NewA3Tracker(cfg A3Config) *A3Tracker { return &A3Tracker{cfg: cfg} }

// Observe advances the tracker by dt with the given measurements and
// reports whether the hand-off fires at this sample.
func (t *A3Tracker) Observe(servingRSRQ, neighborRSRQ float64, dt time.Duration) bool {
	if neighborRSRQ-servingRSRQ > t.cfg.GapDB {
		t.heldFor += dt
		if t.heldFor >= t.cfg.TimeToTrigger {
			t.heldFor = 0
			return true
		}
		return false
	}
	t.heldFor = 0
	return false
}

// Reset clears the time-to-trigger accumulator (after a hand-off or a
// serving-cell change).
func (t *A3Tracker) Reset() { t.heldFor = 0 }
