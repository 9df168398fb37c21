package handoff

import (
	"math"
	"sync"
	"testing"
	"time"

	"fivegsim/internal/deploy"
	"fivegsim/internal/rng"
	"fivegsim/internal/stats"
)

func TestExpectedLatenciesMatchPaper(t *testing.T) {
	// Fig. 6: 4G-4G 30.10 ms, 4G-5G 80.23 ms, 5G-5G 108.40 ms.
	cases := []struct {
		kind Kind
		want float64
	}{
		{FourToFour, 30.1},
		{FourToFive, 80.2},
		{FiveToFive, 108.4},
	}
	for _, c := range cases {
		got := float64(ExpectedLatency(c.kind)) / float64(time.Millisecond)
		if math.Abs(got-c.want) > 1.0 {
			t.Errorf("%v expected latency = %.1f ms, want %.1f", c.kind, got, c.want)
		}
	}
	// The NSA penalty: 5G-5G ≈ 3.6× 4G-4G.
	ratio := float64(ExpectedLatency(FiveToFive)) / float64(ExpectedLatency(FourToFour))
	if ratio < 3.2 || ratio > 4.0 {
		t.Fatalf("5G-5G/4G-4G latency ratio = %.2f, paper reports 3.6×", ratio)
	}
}

func TestProcedureLadder(t *testing.T) {
	// The NSA 5G→5G procedure must contain the release → LTE HO → NR
	// re-addition phases of Fig. 24.
	steps := Procedure(FiveToFive)
	names := map[string]bool{}
	for _, s := range steps {
		names[s.Name] = true
	}
	for _, want := range []string{
		"RRC Connection Reconfiguration (release NR)",
		"Roll-back to master eNB",
		"Random Access Procedure",
		"Addition Request (T-gNB)",
		"NR Random Access Procedure",
	} {
		if !names[want] {
			t.Errorf("5G-5G procedure missing step %q", want)
		}
	}
	if len(steps) <= len(Procedure(FourToFour)) {
		t.Fatal("NSA 5G-5G ladder must be longer than a plain LTE hand-off")
	}
}

// TestProcedureSharedLadders: every kind's ladder is a package slice
// built once, so Procedure allocates nothing, and the 5G→5G ladder is
// release + LTE hand-off from the decision onward + NR re-addition,
// element by element.
func TestProcedureSharedLadders(t *testing.T) {
	for _, k := range []Kind{FourToFour, FiveToFive, FiveToFour, FourToFive} {
		if got := testing.AllocsPerRun(10, func() { Procedure(k) }); got != 0 {
			t.Fatalf("Procedure(%v) allocates %.1f times, want 0", k, got)
		}
	}
	var want []Step
	want = append(want, nrReleaseSteps...)
	want = append(want, lteHOSteps[1:]...)
	want = append(want, nsa55AdditionSteps...)
	got := Procedure(FiveToFive)
	if len(got) != len(want) {
		t.Fatalf("5G-5G ladder has %d steps, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("5G-5G step %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestExecuteDrawsPositiveLatencies(t *testing.T) {
	r := rng.New(1).Stream("sig")
	for _, k := range []Kind{FourToFour, FiveToFive, FiveToFour, FourToFive} {
		trace, total := Execute(Procedure(k), r, []TraceStep{})
		if len(trace) != len(Procedure(k)) {
			t.Fatalf("%v: trace has %d steps, want %d", k, len(trace), len(Procedure(k)))
		}
		var sum time.Duration
		for _, s := range trace {
			if s.Latency <= 0 {
				t.Fatalf("%v: step %q has non-positive latency", k, s.Name)
			}
			sum += s.Latency
		}
		if sum != total {
			t.Fatalf("%v: trace sum %v != total %v", k, sum, total)
		}
	}
}

// TestExecuteNilTraceAllocFree: with a nil trace Execute records nothing
// and allocates nothing, and it makes the draws a traced call makes on
// the same stream. SAProcedure, like Procedure, hands out a ladder built
// once.
func TestExecuteNilTraceAllocFree(t *testing.T) {
	if got := testing.AllocsPerRun(10, func() { SAProcedure() }); got != 0 {
		t.Fatalf("SAProcedure allocates %.1f times, want 0", got)
	}
	for _, steps := range [][]Step{Procedure(FiveToFive), SAProcedure()} {
		r := rng.New(4).Stream("sig")
		if got := testing.AllocsPerRun(10, func() { Execute(steps, r, nil) }); got != 0 {
			t.Fatalf("Execute with a nil trace allocates %.1f times, want 0", got)
		}
		traced, want := Execute(steps, rng.New(5).Stream("sig"), []TraceStep{})
		trace, got := Execute(steps, rng.New(5).Stream("sig"), nil)
		if trace != nil || got != want || len(traced) != len(steps) {
			t.Fatalf("nil trace: %d steps, total %v; traced: %d steps, total %v", len(trace), got, len(traced), want)
		}
	}
}

func TestExecuteLatencyDistribution(t *testing.T) {
	r := rng.New(2).Stream("sig")
	var lat []float64
	for i := 0; i < 2000; i++ {
		_, total := Execute(Procedure(FiveToFive), r, nil)
		lat = append(lat, float64(total)/float64(time.Millisecond))
	}
	s := stats.Summarize(lat)
	if math.Abs(s.Mean-108.4) > 2.5 {
		t.Fatalf("5G-5G mean latency = %.1f ms, want ≈108.4", s.Mean)
	}
	if s.Std < 2 || s.Std > 20 {
		t.Fatalf("5G-5G latency std = %.1f ms, implausible", s.Std)
	}
}

func TestSAModeFasterThanNSA(t *testing.T) {
	// Ablation: the paper predicts SA removes the roll-back penalty.
	r := rng.New(3).Stream("sa")
	var sa, nsa float64
	for i := 0; i < 1000; i++ {
		_, total := Execute(SAProcedure(), r, nil)
		sa += total.Seconds()
		_, total = Execute(Procedure(FiveToFive), r, nil)
		nsa += total.Seconds()
	}
	if sa*2.5 > nsa {
		t.Fatalf("SA hand-off (%.1f ms) should be ≳3× faster than NSA (%.1f ms)", sa, nsa)
	}
}

func TestA3Tracker(t *testing.T) {
	tr := NewA3Tracker(DefaultA3())
	dt := 100 * time.Millisecond
	// Gap below threshold: never fires.
	for i := 0; i < 10; i++ {
		if tr.Observe(-10, -8, dt) {
			t.Fatal("fired below the 3 dB gap")
		}
	}
	// Gap above threshold must persist 324 ms (4 samples at 100 ms).
	if tr.Observe(-10, -6, dt) || tr.Observe(-10, -6, dt) || tr.Observe(-10, -6, dt) {
		t.Fatal("fired before time-to-trigger")
	}
	if !tr.Observe(-10, -6, dt) {
		t.Fatal("did not fire after TTT elapsed")
	}
	// Interruption resets the accumulator.
	tr.Observe(-10, -6, dt)
	tr.Observe(-10, -9, dt) // gap collapses
	if tr.Observe(-10, -6, dt) || tr.Observe(-10, -6, dt) || tr.Observe(-10, -6, dt) {
		t.Fatal("TTT did not reset after the condition broke")
	}
}

func TestEventDescriptions(t *testing.T) {
	for e := A1; e <= B2; e++ {
		if e.String() == "?" || e.Description() == "" {
			t.Fatalf("event %d lacks name/description", e)
		}
	}
}

var (
	campaignOnce   sync.Once
	campaignCached *Campaign
)

// campaignForTest runs the (expensive) 4×40-minute walking campaign once
// and shares it across the statistical tests. The campaign is skipped in
// short mode so the CI race pass (`go test -race -short`) stays cheap;
// the parallel-equivalence tests cover the campaign path there instead.
func campaignForTest(t *testing.T) *Campaign {
	t.Helper()
	if testing.Short() {
		t.Skip("40-minute campaign statistics are not short-mode work")
	}
	campaignOnce.Do(func() {
		campus := deploy.New(42)
		cfg := DefaultConfig()
		cfg.Duration = 40 * time.Minute
		all := &Campaign{MeasEvents: map[EventType]int{}}
		for seed := int64(1); seed <= 4; seed++ {
			c := RunCampaign(campus, cfg, seed)
			all.Events = append(all.Events, c.Events...)
			for k, v := range c.MeasEvents {
				all.MeasEvents[k] += v
			}
		}
		campaignCached = all
	})
	return campaignCached
}

func TestCampaignLatencyCDFs(t *testing.T) {
	c := campaignForTest(t)
	ff := stats.Summarize(c.Latencies(FourToFour))
	fv := stats.Summarize(c.Latencies(FiveToFive))
	if ff.N < 30 || fv.N < 20 {
		t.Fatalf("too few hand-offs: 4G-4G %d, 5G-5G %d", ff.N, fv.N)
	}
	if math.Abs(ff.Mean-30.1) > 4 {
		t.Fatalf("measured 4G-4G latency = %.1f ms, paper 30.1", ff.Mean)
	}
	if math.Abs(fv.Mean-108.4) > 8 {
		t.Fatalf("measured 5G-5G latency = %.1f ms, paper 108.4", fv.Mean)
	}
}

func TestCampaignHorizontalDominance(t *testing.T) {
	// Paper: 387 of 407 events are horizontal (5G-5G among the 5G ones);
	// in our dual-connectivity accounting, same-tech hand-offs dominate
	// and verticals are the minority.
	c := campaignForTest(t)
	horizontal := len(c.ByKind(FourToFour)) + len(c.ByKind(FiveToFive))
	vertical := len(c.ByKind(FiveToFour)) + len(c.ByKind(FourToFive))
	if vertical == 0 {
		t.Fatal("no vertical hand-offs observed")
	}
	if frac := float64(horizontal) / float64(horizontal+vertical); frac < 0.7 {
		t.Fatalf("horizontal fraction = %.2f, should dominate", frac)
	}
}

func TestCampaignRSRQGains(t *testing.T) {
	c := campaignForTest(t)
	above3 := func(k Kind) float64 {
		gains := c.Gains(k)
		if len(gains) == 0 {
			return -1
		}
		n := 0
		for _, g := range gains {
			if g > 3 {
				n++
			}
		}
		return float64(n) / float64(len(gains))
	}
	// Paper Fig. 5: ≈75 % of hand-offs overall gain >3 dB; 4G-5G is the
	// weakest kind (61 %), i.e. a non-negligible share of hand-offs does
	// not improve the link.
	var tot, above int
	for _, e := range c.Events {
		tot++
		if e.Gain() > 3 {
			above++
		}
	}
	overall := float64(above) / float64(tot)
	if overall < 0.65 || overall > 0.95 {
		t.Fatalf("overall >3dB gain fraction = %.2f, paper ≈0.75", overall)
	}
	kinds := []Kind{FourToFour, FiveToFive, FiveToFour}
	worst := above3(FourToFive)
	if worst < 0 {
		t.Fatal("no 4G-5G events")
	}
	for _, k := range kinds {
		if f := above3(k); f >= 0 && f < worst {
			t.Fatalf("%v gain fraction %.2f below 4G-5G's %.2f; 4G-5G should be the weakest", k, f, worst)
		}
	}
}

func TestCampaignEventMix(t *testing.T) {
	c := campaignForTest(t)
	total := 0
	for _, v := range c.MeasEvents {
		total += v
	}
	if total == 0 {
		t.Fatal("no measurement events recorded")
	}
	frac := func(e EventType) float64 { return float64(c.MeasEvents[e]) / float64(total) }
	// Paper: 21.98 % A1, 0.18 % A2, 67.25 % A3, 9.19 % A5, 1.40 % B1 —
	// A3 dominates, A1 second, the rest minor.
	if frac(A3) < 0.5 {
		t.Fatalf("A3 fraction = %.2f, paper 0.67 (dominant)", frac(A3))
	}
	if frac(A1) < 0.08 || frac(A1) > 0.35 {
		t.Fatalf("A1 fraction = %.2f, paper 0.22", frac(A1))
	}
	if frac(A3) < frac(A1) {
		t.Fatal("A3 must outnumber A1")
	}
}

func TestCaseStudyFig4(t *testing.T) {
	campus := deploy.New(42)
	series, hoIdx := CaseStudy(campus, 1)
	if hoIdx <= 0 || hoIdx >= len(series)-1 {
		t.Fatalf("case study produced no mid-series hand-off (idx %d of %d)", hoIdx, len(series))
	}
	if series[hoIdx-1].ServingPCI != 226 || series[hoIdx].ServingPCI != 44 {
		t.Fatalf("case study should switch 226 → 44, got %d → %d",
			series[hoIdx-1].ServingPCI, series[hoIdx].ServingPCI)
	}
	// Fig. 4 shape: the new cell is better than the old one after the HO.
	after := series[min(hoIdx+10, len(series)-1)]
	if after.RSRQ[44] <= after.RSRQ[226] {
		t.Fatalf("after hand-off, cell 44 RSRQ (%.1f) should exceed cell 226's (%.1f)",
			after.RSRQ[44], after.RSRQ[226])
	}
	for _, s := range series {
		for pci, v := range s.RSRQ {
			if v > 0 || v < -30 {
				t.Fatalf("RSRQ of PCI %d out of range: %v", pci, v)
			}
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	campus := deploy.New(42)
	cfg := DefaultConfig()
	cfg.Duration = 5 * time.Minute
	a := RunCampaign(campus, cfg, 9)
	b := RunCampaign(campus, cfg, 9)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i].Latency != b.Events[i].Latency || a.Events[i].ToPCI != b.Events[i].ToPCI {
			t.Fatal("campaign not deterministic")
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestOneLiveCellBooksNoPhantomHandoff: with every NR cell down but one,
// the walker measures a single NR cell, so it has no NR neighbour. No
// hand-off may then name a cell the campus does not carry: a missing
// neighbour must never satisfy A3 or A5, where a zero measurement (PCI 0,
// RSRQ 0 dB) beats every real cell.
func TestOneLiveCellBooksNoPhantomHandoff(t *testing.T) {
	campus := deploy.New(42)
	const live = 60
	nr := map[int]bool{}
	for _, c := range campus.NRCells {
		nr[c.PCI] = true
	}
	if !nr[live] {
		t.Fatalf("the campus carries no NR cell with PCI %d", live)
	}
	lte := map[int]bool{}
	for _, c := range campus.LTECells {
		if nr[c.PCI] {
			t.Fatalf("PCI %d names an NR and an LTE cell; the down predicate would take both", c.PCI)
		}
		lte[c.PCI] = true
	}
	cfg := DefaultConfig()
	cfg.Duration = 20 * time.Minute
	cfg.CellDown = func(pci int, _ time.Duration) bool { return nr[pci] && pci != live }
	camp := RunCampaign(campus, cfg, 42)
	if len(camp.Events) == 0 {
		t.Fatal("the walk booked no hand-off")
	}
	for _, e := range camp.Events {
		fromNR := e.Kind == FiveToFive || e.Kind == FiveToFour
		toNR := e.Kind == FiveToFive || e.Kind == FourToFive
		if fromNR && e.FromPCI != live || !fromNR && !lte[e.FromPCI] ||
			toNR && e.ToPCI != live || !toNR && !lte[e.ToPCI] {
			t.Errorf("%v hand-off %d→%d at %v names a cell that is down or absent", e.Kind, e.FromPCI, e.ToPCI, e.At)
		}
	}
}
