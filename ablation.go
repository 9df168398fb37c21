package fivegsim

import (
	"time"

	"fivegsim/internal/deploy"
	"fivegsim/internal/handoff"
	"fivegsim/internal/rng"
)

// ablationSAHandoff returns how many times slower the NSA 5G→5G hand-off
// is than the hypothetical standalone (direct Xn) hand-off.
func ablationSAHandoff(cfg Config) float64 {
	r := rng.New(cfg.Seed).Stream("ablation.sa")
	var sa, nsa time.Duration
	n := 500
	if cfg.Quick {
		n = 100
	}
	for i := 0; i < n; i++ {
		sa += handoff.ExecuteSA(r)
		_, total := handoff.Execute(handoff.FiveToFive, r)
		nsa += total
	}
	return float64(nsa) / float64(sa)
}

// A3Sweep compares hand-off behaviour across trigger thresholds: events
// per minute and the fraction of hand-offs that actually improved the
// link by >3 dB.
type A3Sweep struct {
	GapDB      float64
	HOsPerMin  float64
	GoodHOFrac float64
}

// RunA3Sweep is the full hysteresis ablation used by the fgbench
// extension experiments.
func RunA3Sweep(cfg Config, gaps []float64) []A3Sweep {
	campus := deploy.New(cfg.Seed)
	var out []A3Sweep
	for _, gap := range gaps {
		hcfg := handoff.DefaultConfig()
		hcfg.Duration = 10 * time.Minute
		if cfg.Quick {
			hcfg.Duration = 4 * time.Minute
		}
		hcfg.A3.GapDB = gap
		camp := handoff.RunCampaign(campus, hcfg, cfg.Seed)
		good := 0
		for _, e := range camp.Events {
			if e.Gain() > 3 {
				good++
			}
		}
		frac := 0.0
		if len(camp.Events) > 0 {
			frac = float64(good) / float64(len(camp.Events))
		}
		out = append(out, A3Sweep{
			GapDB:      gap,
			HOsPerMin:  float64(len(camp.Events)) / hcfg.Duration.Minutes(),
			GoodHOFrac: frac,
		})
	}
	return out
}
