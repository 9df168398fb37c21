package pop

import (
	"fivegsim/internal/coverage"
	"fivegsim/internal/deploy"
	"fivegsim/internal/handoff"
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
//     radio.DLBitRate. probe_test.go pins this float-for-float at
//     surveyed positions.
//
//   - The experiment side: the probe experiments themselves (coverage
//     survey, hand-off campaigns) are the N=1 special case of a
//     population study, so ProbeSurvey and ProbeCampaign delegate to
//     the exact single-UE pipelines. A population-flavoured X14 run is
//     therefore bit-identical to the seed experiments by construction,
//     for any Workers value — both delegates carry the internal/par
//     determinism contract.

// ProbeSurvey runs the paper's walking coverage survey as the N=1
// special case of a population study: n sampled probe positions over the
// campus, one UE. Identical to a coverage.Surveyor run by construction.
func ProbeSurvey(c *deploy.Campus, n int, seed int64, workers int) *coverage.Survey {
	return coverage.NewSurveyor(c, n, seed).Run(workers)
}

// ProbeCampaign runs the paper's hand-off walk campaigns as the N=1
// special case: n walks of a single probe UE. Identical to
// handoff.RunCampaigns by construction.
func ProbeCampaign(c *deploy.Campus, cfg handoff.Config, seed int64, n, workers int) *handoff.Campaign {
	return handoff.RunCampaigns(c, cfg, seed, n, workers)
}
