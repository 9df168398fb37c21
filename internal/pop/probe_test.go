package pop

import (
	"testing"

	"fivegsim/internal/coverage"
	"fivegsim/internal/deploy"
	"fivegsim/internal/radio"
	"fivegsim/internal/traffic"
)

// The N=1 contract: the paper's measurement study is a single probe UE
// walking the campus, and the population layer must reproduce those
// numbers exactly — not approximately — when the population degenerates
// to one UE. Two things make that hold:
//
//   - The engine side: a 1-UE population has no contention, so the PRB
//     scheduler's underload path grants the full demand and the
//     delivered rate is Band.Rate(se, prbs) — the identical call (same
//     SE, same band, same PRB count) the probe pipeline makes through
//     radio.DLBitRate. TestSingleUEMatchesProbePipeline pins this
//     float-for-float at surveyed positions: the grant as the serving
//     cell's utilization sample of exactly 1, the rate through the
//     tick's delivered bits, which must equal DLBitRate × tick length
//     exactly.
//
//   - The experiment side: the probe experiments themselves (coverage
//     survey, hand-off campaigns) are the N=1 special case of a
//     population study, so X14 runs the exact single-UE pipelines,
//     coverage.Surveyor and handoff.RunCampaigns, and is bit-identical
//     to the seed experiments for any Workers value — both carry the
//     internal/par determinism contract.

// TestSingleUEMatchesProbePipeline is the substantive engine half of the
// N=1 contract: a single saturating UE teleported along surveyed
// positions must attach to the same serving cell the survey measured and
// deliver exactly radio.DLBitRate(m, band, band.PRBs) — the full-grid
// grant with no contention — bit-for-bit, for every Workers value. Each
// Place restarts the delivered-bit count, so one tick's bits are
// compared alone and no difference can vanish into a running sum.
func TestSingleUEMatchesProbePipeline(t *testing.T) {
	campus := deploy.New(42)
	n := 400
	if testing.Short() {
		n = 100
	}
	survey := coverage.RunSurvey(campus, n, 42, 1)

	m := DefaultModel()
	m.N = 1
	m.MaxSpeedKmh = 0                                     // teleported, not walking
	m.Mix = traffic.MixWeights{Web: 0, Video: 0, Bulk: 1} // saturating probe

	for _, workers := range []int{1, 8} {
		p := New(campus, m, 42, Telemetry{})
		tickSec := p.Model.TickDur.Seconds()
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
			if u := p.ServingUtil(0); u != 1 {
				t.Fatalf("sample %d: serving cell utilization %v, want 1 (full grid %d PRBs, no contention)",
					i, u, band.PRBs)
			}
			if got, exp := p.DeliveredBits(0), radio.DLBitRate(want, band, band.PRBs)*tickSec; got != exp {
				t.Fatalf("sample %d: delivered %.17g bits, probe pipeline %.17g (must be bit-identical)",
					i, got, exp)
			}
		}
	}
}
