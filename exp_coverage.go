package fivegsim

import (
	"time"

	"fivegsim/internal/coverage"
	"fivegsim/internal/deploy"
	"fivegsim/internal/handoff"
	"fivegsim/internal/radio"
	"fivegsim/internal/stats"
)

func surveySamples(cfg Config) int {
	if cfg.Quick {
		return 1200
	}
	return 4630 // the paper's sample count
}

func init() {
	register("T1", "Basic physical info (band, cells, mean RSRP)", runTable1)
	register("T2", "RSRP distribution and coverage holes", runTable2)
	register("F2", "Campus RSRP map and cell-72 bit-rate contour", runFig2)
	register("F3", "Indoor/outdoor bit-rate gap", runFig3)
	register("F4", "RSRQ evolution during a hand-off (PCI 226 → 44)", runFig4)
	register("F5", "RSRQ gap before/after hand-off", runFig5)
	register("F6", "Hand-off latency CDFs", runFig6)
}

func runTable1(cfg Config) Result {
	c := deploy.New(cfg.Seed)
	s := coverage.RunSurvey(c, surveySamples(cfg), cfg.Seed, cfg.Workers)
	nr := s.RSRPSummary(radio.NR)
	lte := s.RSRPSummary(radio.LTE)
	return Result{
		Lines: []string{
			line("DL band           4G: 1840–1860 MHz (b3, FDD)   5G: 3500–3600 MHz (n78, TDD 3:1)"),
			line("# cells           4G: %d (paper 34)              5G: %d (paper 13)", len(c.LTECells), len(c.NRCells)),
			line("RSRP (dBm)        4G: %s (paper −84.84 ± 8.72)", lte),
			line("                  5G: %s (paper −84.03 ± 11.72)", nr),
			line("gNB density       %.2f /km² (paper 12.99)", c.GNBDensityPerKm2()),
			line("eNB density       %.2f /km² (paper 28.14)", c.ENBDensityPerKm2()),
		},
		Values: map[string]float64{
			"rsrp5G": nr.Mean, "rsrp4G": lte.Mean,
			"cells5G": float64(len(c.NRCells)), "cells4G": float64(len(c.LTECells)),
		},
	}
}

func runTable2(cfg Config) Result {
	c := deploy.New(cfg.Seed)
	s := coverage.RunSurvey(c, surveySamples(cfg), cfg.Seed, cfg.Workers)
	res := Result{Values: map[string]float64{}}
	paper := map[string][6]float64{
		"4G":        {0.13, 5.56, 23.60, 39.20, 29.74, 1.77},
		"5G":        {0.95, 8.15, 26.88, 39.37, 16.59, 8.07},
		"4G(6eNBs)": {0.13, 5.29, 21.86, 38.77, 30.02, 3.84},
	}
	for _, tc := range []struct {
		name    string
		tech    radio.Tech
		coSited bool
	}{{"4G", radio.LTE, false}, {"5G", radio.NR, false}, {"4G(6eNBs)", radio.LTE, true}} {
		bins := s.RSRPDistribution(tc.tech, tc.coSited)
		total := 0
		for _, b := range bins {
			total += b.Count
		}
		row := tc.name + ": "
		for i, b := range bins {
			row += line("[%.0f,%.0f)=%.2f%%(paper %.2f%%) ", b.Lo, b.Hi, 100*b.Frac(total), paper[tc.name][i])
		}
		res.Lines = append(res.Lines, row)
		res.Values["holes"+tc.name] = s.HoleFraction(tc.tech, tc.coSited)
	}
	return res
}

func runFig2(cfg Config) Result {
	c := deploy.New(cfg.Seed)
	resolution := 25.0
	if cfg.Quick {
		resolution = 60
	}
	grid := coverage.GridMap(c, radio.NR, resolution, cfg.Workers)
	usable, holes := 0, 0
	for _, row := range grid {
		for _, g := range row {
			if g.RSRPdBm >= radio.ServiceThresholdDBm {
				usable++
			} else {
				holes++
			}
		}
	}
	nrRadius := coverage.UsableRadius(c, c.CellByPCI(72))
	lteRadius := coverage.UsableRadius(c, c.CellByPCI(100))
	res := Result{
		Lines: []string{
			line("map %dx%d px at %.0f m: %d covered, %d holes (%.1f%%)",
				len(grid[0]), len(grid), resolution, usable, holes, 100*float64(holes)/float64(usable+holes)),
			line("5G usable radius (cell 72): %.0f m (paper ≈230 m)", nrRadius),
			line("4G usable radius:           %.0f m (paper ≈520 m)", lteRadius),
		},
		Values: map[string]float64{"radius5G": nrRadius, "radius4G": lteRadius},
	}
	for _, ring := range coverage.CellContour(c, c.CellByPCI(72), 40, 280, cfg.Seed) {
		res.Lines = append(res.Lines, line("cell-72 contour %3.0f–%3.0f m: mean %4.0f Mb/s, usable %3.0f%%",
			ring.LoM, ring.HiM, ring.MeanBps/1e6, 100*ring.UsableFrac))
	}
	return res
}

func runFig3(cfg Config) Result {
	c := deploy.New(cfg.Seed)
	nr := stats.Summarize(coverage.IndoorOutdoorGap(c, radio.NR, cfg.Seed))
	lte := stats.Summarize(coverage.IndoorOutdoorGap(c, radio.LTE, cfg.Seed))
	return Result{
		Lines: []string{
			line("5G indoor bit-rate drop: %.2f%% over %d wall pairs (paper 50.59%%)", 100*nr.Mean, nr.N),
			line("4G indoor bit-rate drop: %.2f%% over %d wall pairs (paper 20.38%%)", 100*lte.Mean, lte.N),
			line("ratio: %.2f× (paper \"more than 2×\")", nr.Mean/lte.Mean),
		},
		Values: map[string]float64{"drop5G": nr.Mean, "drop4G": lte.Mean},
	}
}

func runFig4(cfg Config) Result {
	c := deploy.New(cfg.Seed)
	series, hoIdx := handoff.CaseStudy(c, cfg.Seed)
	res := Result{Values: map[string]float64{"hoIdx": float64(hoIdx)}}
	if hoIdx >= 0 {
		res.Lines = append(res.Lines, line("hand-off PCI %d → %d at sample %d (t=%.1fs)",
			226, 44, hoIdx, series[hoIdx].At.Seconds()))
	} else {
		// Some deployment jitters never trip A3 along the fixed walk; the
		// trace is still reported, just without a hand-off marker.
		res.Lines = append(res.Lines, line("no hand-off triggered along the case-study walk (seed %d)", cfg.Seed))
	}
	step := len(series) / 12
	for i := 0; i < len(series); i += step {
		s := series[i]
		res.Lines = append(res.Lines, line("t=%5.1fs serving=%3d RSRQ226=%6.1f RSRQ44=%6.1f dB",
			s.At.Seconds(), s.ServingPCI, s.RSRQ[226], s.RSRQ[44]))
	}
	return res
}

// campaignFor walks the probe campaign of F5, F6 and X14 on campus: four
// 40-minute walks, or two 10-minute ones under Quick.
func campaignFor(cfg Config, campus *deploy.Campus) *handoff.Campaign {
	hcfg := handoff.DefaultConfig()
	walks := 4
	hcfg.Duration = 40 * time.Minute
	if cfg.Quick {
		hcfg.Duration = 10 * time.Minute
		walks = 2
	}
	// Walk i runs with seed cfg.Seed+1+i, the same ladder the serial
	// loop used; walks execute across cfg.Workers goroutines and merge
	// in walk order, so the campaign is identical for any worker count.
	return handoff.RunCampaigns(campus, hcfg, cfg.Seed, walks, cfg.Workers)
}

func runFig5(cfg Config) Result {
	camp := campaignFor(cfg, deploy.New(cfg.Seed))
	res := Result{Values: map[string]float64{}}
	paper := map[handoff.Kind]float64{
		handoff.FourToFour: 80, handoff.FiveToFive: 84,
		handoff.FiveToFour: 75, handoff.FourToFive: 61,
	}
	var tot, above int
	for _, k := range []handoff.Kind{handoff.FourToFour, handoff.FiveToFive, handoff.FiveToFour, handoff.FourToFive} {
		gains := camp.Gains(k)
		n3 := 0
		for _, g := range gains {
			if g > 3 {
				n3++
			}
		}
		tot += len(gains)
		above += n3
		frac := 0.0
		if len(gains) > 0 {
			frac = float64(n3) / float64(len(gains))
		}
		res.Lines = append(res.Lines, line("%-5s: n=%3d  >3dB gain: %5.1f%% (paper %.0f%%)  mean gain %s dB",
			k, len(gains), 100*frac, paper[k], stats.Summarize(gains)))
		res.Values["gain"+k.String()] = frac
	}
	res.Lines = append(res.Lines, line("overall >3dB: %.1f%% (paper ≈75%%; 25%% of HOs don't help)",
		100*float64(above)/float64(tot)))
	res.Values["overall"] = float64(above) / float64(tot)
	return res
}

func runFig6(cfg Config) Result {
	camp := campaignFor(cfg, deploy.New(cfg.Seed))
	res := Result{Values: map[string]float64{}}
	paper := map[handoff.Kind]float64{
		handoff.FourToFour: 30.10, handoff.FiveToFive: 108.40, handoff.FourToFive: 80.23,
	}
	for _, k := range []handoff.Kind{handoff.FourToFour, handoff.FourToFive, handoff.FiveToFive} {
		lat := camp.Latencies(k)
		if len(lat) == 0 {
			res.Lines = append(res.Lines, line("%-5s: no events in this run", k))
			continue
		}
		s := stats.Summarize(lat)
		res.Lines = append(res.Lines, line("%-5s: n=%3d  latency %s ms (paper %.2f ms)", k, s.N, s, paper[k]))
		res.Values["latency"+k.String()] = s.Mean
	}
	res.Lines = append(res.Lines, line("5G-5G/4G-4G ratio: %.1f× (paper 3.6×; NSA roll-back penalty)",
		res.Values["latency5G-5G"]/res.Values["latency4G-4G"]))
	return res
}
