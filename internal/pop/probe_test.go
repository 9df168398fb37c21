package pop

import (
	"reflect"
	"testing"
	"time"

	"fivegsim/internal/coverage"
	"fivegsim/internal/deploy"
	"fivegsim/internal/handoff"
	"fivegsim/internal/radio"
	"fivegsim/internal/traffic"
)

// N=1 regression suite: the population layer must reproduce the paper's
// single-probe pipelines bit-for-bit when the population degenerates to
// one UE. The probe delegates are held DeepEqual to the seed pipelines,
// and the engine itself is held float-for-float against radio.DLBitRate
// at surveyed positions.

func TestProbeSurveyMatchesCoverage(t *testing.T) {
	campus := deploy.New(42)
	n := 1200
	if testing.Short() {
		n = 300
	}
	for _, workers := range []int{1, 8} {
		got := ProbeSurvey(campus, n, 42, workers)
		want := coverage.NewSurveyor(campus, n, 42).Run(workers)
		if !reflect.DeepEqual(got.Samples, want.Samples) {
			t.Fatalf("workers %d: ProbeSurvey diverges from coverage.Surveyor", workers)
		}
	}
}

func TestProbeCampaignMatchesHandoff(t *testing.T) {
	campus := deploy.New(42)
	// ProbeCampaign is a direct delegate, so the equivalence holds by
	// construction and does not get stronger with campaign length — keep
	// the walks short instead of replaying the paper's full 80 minutes.
	cfg := handoff.DefaultConfig()
	cfg.Duration = 15 * time.Minute
	n := 3
	if testing.Short() {
		cfg.Duration = 5 * time.Minute
		n = 2
	}
	for _, workers := range []int{1, 8} {
		got := ProbeCampaign(campus, cfg, 42, n, workers)
		want := handoff.RunCampaigns(campus, cfg, 42, n, workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: ProbeCampaign diverges from handoff.RunCampaigns", workers)
		}
	}
}

// TestSingleUEMatchesProbePipeline is the substantive engine half of the
// N=1 contract: a single saturating UE teleported along surveyed
// positions must attach to the same serving cell the survey measured and
// deliver exactly radio.DLBitRate(m, band, band.PRBs) — the full-grid
// grant with no contention — bit-for-bit, for every Workers value.
func TestSingleUEMatchesProbePipeline(t *testing.T) {
	campus := deploy.New(42)
	n := 400
	if testing.Short() {
		n = 100
	}
	survey := coverage.NewSurveyor(campus, n, 42).Run(1)

	m := DefaultModel()
	m.N = 1
	m.MaxSpeedKmh = 0                                     // teleported, not walking
	m.Mix = traffic.MixWeights{Web: 0, Video: 0, Bulk: 1} // saturating probe

	for _, workers := range []int{1, 8} {
		p := New(campus, m, 42)
		if p.Len() != 1 {
			t.Fatalf("population size %d, want 1", p.Len())
		}
		for i, s := range survey.Samples {
			p.Place(0, s.Pos)
			p.Tick(workers)

			var want radio.Measurement
			var band radio.Band
			switch {
			case s.NR.Usable():
				want, band = s.NR, radio.BandNR()
			case s.LTE.Usable():
				want, band = s.LTE, radio.BandLTE()
			default:
				if p.ServingPCI(0) != -1 {
					t.Fatalf("sample %d: survey saw outage, population attached to PCI %d",
						i, p.ServingPCI(0))
				}
				continue
			}
			if p.ServingPCI(0) != want.PCI {
				t.Fatalf("sample %d: serving PCI %d, survey best server %d",
					i, p.ServingPCI(0), want.PCI)
			}
			if p.GrantPRB(0) != band.PRBs {
				t.Fatalf("sample %d: grant %d PRBs, want full grid %d (no contention)",
					i, p.GrantPRB(0), band.PRBs)
			}
			if got, exp := p.ThroughputBps(0), radio.DLBitRate(want, band, band.PRBs); got != exp {
				t.Fatalf("sample %d: throughput %.17g, probe pipeline %.17g (must be bit-identical)",
					i, got, exp)
			}
		}
	}
}
