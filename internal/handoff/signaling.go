package handoff

import (
	"math/rand"
	"time"

	"fivegsim/internal/rng"
)

// Kind classifies a hand-off by source and target technology.
type Kind int

const (
	// FourToFour is an intra-LTE hand-off (the master-eNB change).
	FourToFour Kind = iota
	// FiveToFive is a horizontal NR hand-off, which under NSA requires
	// releasing NR, hand-off between master eNBs, and re-adding NR.
	FiveToFive
	// FiveToFour drops the NR leg and continues on LTE.
	FiveToFour
	// FourToFive adds an NR secondary leg (SgNB addition).
	FourToFive
)

var kindNames = [...]string{"4G-4G", "5G-5G", "5G-4G", "4G-5G"}

// String returns the paper's notation for the hand-off kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Step is one signaling message (or procedure phase) with its latency
// distribution. The sequences follow the Appendix A ladder (Fig. 24).
type Step struct {
	Name   string
	MeanMs float64
	StdMs  float64
}

// lteHOSteps is the classic intra-LTE X2 hand-off; the means sum to
// ≈30.1 ms, the paper's measured 4G-4G latency.
var lteHOSteps = []Step{
	{"Measurement Report", 2.1, 0.5},
	{"HO Decision", 3.0, 0.8},
	{"Hand-off Request", 4.0, 1.0},
	{"Admission Control", 3.0, 0.8},
	{"Request ACK", 4.0, 1.0},
	{"RRC Connection Reconfiguration", 6.0, 1.5},
	{"Random Access Procedure", 8.0, 2.0},
}

// nrAdditionSteps is the SgNB-addition procedure that attaches the NR leg
// to a master eNB (the 4G→5G vertical hand-off); means sum to ≈80.2 ms.
var nrAdditionSteps = []Step{
	{"Measurement Report (B1)", 2.1, 0.5},
	{"SgNB Addition Decision", 3.0, 0.8},
	{"Addition Request", 9.0, 2.0},
	{"Addition Request ACK", 9.0, 2.0},
	{"RRC Connection Reconfiguration (LTE)", 12.0, 2.5},
	{"SN Status Transfer", 7.0, 1.5},
	{"NR Random Access Procedure", 14.0, 3.0},
	{"RRC Reconfiguration Complete", 10.0, 2.0},
	{"Path Update", 14.1, 3.0},
}

// nrReleaseSteps tears the NR leg down and rolls the UE back to its master
// eNB (the start of every NSA 5G→5G hand-off, and the whole of 5G→4G).
var nrReleaseSteps = []Step{
	{"NR Measurement Report", 2.1, 0.5},
	{"SgNB Release Request", 5.0, 1.2},
	{"RRC Connection Reconfiguration (release NR)", 9.0, 2.0},
	{"Roll-back to master eNB", 8.1, 1.5},
}

// nsa55AdditionSteps re-requests NR resources on the target master after
// the LTE hand-off inside a 5G→5G NSA hand-off. Slightly shorter than a
// cold SgNB addition because measurement context is carried over.
var nsa55AdditionSteps = []Step{
	{"Addition Request (T-gNB)", 9.0, 2.0},
	{"Addition Request ACK", 9.0, 2.0},
	{"RRC Connection Reconfiguration (add NR)", 11.0, 2.5},
	{"SN Status Transfer", 6.0, 1.5},
	{"NR Random Access Procedure", 13.2, 3.0},
	{"T-gNB RRC Reconfiguration Complete", 8.0, 2.0},
}

// nsa55Steps is the whole NSA 5G→5G ladder, built once: release + LTE
// hand-off (decision onward, without a second measurement report) + NR
// re-addition. Its capacity is clipped to its length, like the literal
// ladders', so an append never writes into the shared array.
var nsa55Steps = func() []Step {
	steps := append([]Step(nil), nrReleaseSteps...)
	steps = append(steps, lteHOSteps[1:]...)
	steps = append(steps, nsa55AdditionSteps...)
	return steps[:len(steps):len(steps)]
}()

// Procedure returns the signaling ladder for a hand-off kind. A 5G→5G NSA
// hand-off is release + LTE hand-off (without a second measurement
// report) + NR re-addition: the UE "cannot directly switch to any 5G
// neighboring cells, but has to release its current 5G NR resource and
// roll back to the current 4G eNB" (§3.4). Every ladder is a shared
// package slice, built once: callers must not modify it.
func Procedure(k Kind) []Step {
	switch k {
	case FourToFour:
		return lteHOSteps
	case FourToFive:
		return nrAdditionSteps
	case FiveToFour:
		return nrReleaseSteps
	case FiveToFive:
		return nsa55Steps
	}
	return nil
}

// ExpectedLatency returns the sum of mean step latencies for a kind.
func ExpectedLatency(k Kind) time.Duration {
	var ms float64
	for _, s := range Procedure(k) {
		ms += s.MeanMs
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// TraceStep is one executed signaling step with its drawn latency.
type TraceStep struct {
	Name    string
	Latency time.Duration
}

// Execute draws a latency for every step of a signaling ladder, in
// order, and returns the total interruption. When trace is not nil it
// also appends each step with its drawn latency to trace and returns the
// grown slice; a nil trace records nothing and allocates nothing.
func Execute(steps []Step, r *rand.Rand, trace []TraceStep) ([]TraceStep, time.Duration) {
	var total time.Duration
	for _, s := range steps {
		ms := rng.ClampedNormal(r, s.MeanMs, s.StdMs, s.MeanMs/4, s.MeanMs*3)
		d := time.Duration(ms * float64(time.Millisecond))
		if trace != nil {
			trace = append(trace, TraceStep{Name: s.Name, Latency: d})
		}
		total += d
	}
	return trace, total
}

// saSteps is the hypothetical standalone-mode 5G→5G hand-off: a direct
// Xn hand-off between gNBs, with no LTE roll-back.
var saSteps = []Step{
	{"Measurement Report", 2.1, 0.5},
	{"HO Decision", 3.0, 0.8},
	{"Xn Hand-off Request", 4.0, 1.0},
	{"Admission Control", 3.0, 0.8},
	{"Request ACK", 4.0, 1.0},
	{"RRC Reconfiguration (NR)", 6.0, 1.5},
	{"NR Random Access Procedure", 10.0, 2.5},
}

// SAProcedure returns the standalone-mode 5G→5G ladder the SA-vs-NSA
// ablation draws from. The paper predicts "this long HO latency problem
// can be resolved in the future 5G SA architecture". Like Procedure's,
// the ladder is a shared package slice: callers must not modify it.
func SAProcedure() []Step { return saSteps }
