package fivegsim

import (
	"time"

	"fivegsim/internal/energy"
	"fivegsim/internal/radio"
	"fivegsim/internal/traffic"
)

func init() {
	register("T4", "Energy of LTE / NR NSA / NR Oracle / dynamic switching", runTable4)
	register("F21", "Device power breakdown by application", runFig21)
	register("F22", "Energy per bit under saturated traffic", runFig22)
	register("F23", "Energy-management showcase (web loads every 3 s)", runFig23)
}

func runTable4(cfg Config) Result {
	res := Result{Values: map[string]float64{}}
	paper := map[string][4]float64{
		"Web":   {85.44, 113.94, 95.69, 85.41},
		"Video": {227.13, 140.19, 123.03, 133.66},
		"File":  {357.67, 157.29, 139.72, 150.80},
	}
	traces := []struct {
		name  string
		trace energy.Trace
	}{
		{"Web", traffic.Web(cfg.Seed)},
		{"Video", traffic.Video(cfg.Seed)},
		{"File", traffic.File(cfg.Seed)},
	}
	for _, tc := range traces {
		row := line("%-5s:", tc.name)
		for i, m := range energy.Models() {
			r := energy.Replay(m, tc.trace)
			r.RecordObs(cfg.Obs, m)
			row += line("  %-11s %6.1f J (paper %6.2f)", m, r.EnergyJ, paper[tc.name][i])
			res.Values[tc.name+"/"+m.String()] = r.EnergyJ
		}
		res.Lines = append(res.Lines, row)
	}
	res.Lines = append(res.Lines,
		line("dyn-switch saves %.1f%% over NSA for web (paper 25.04%%); oracle gains stay modest for bulk (paper 11–16%%)",
			100*(1-res.Values["Web/Dyn. switch"]/res.Values["Web/NR NSA"])))
	return res
}

func runFig21(cfg Config) Result {
	rows := energy.RunFig21()
	res := Result{Values: map[string]float64{}}
	var nrShare float64
	for _, b := range rows {
		res.Lines = append(res.Lines, line("%v %-9s: system %.2f + screen %.2f + app %.2f + radio %.2f = %.2f W (radio %.0f%%)",
			b.Tech, b.App.Name, b.System, b.Screen, b.AppW, b.Radio, b.Total(), 100*b.RadioShare()))
		if b.Tech == radio.NR {
			nrShare += b.RadioShare() / 4
		}
	}
	res.Lines = append(res.Lines, line("mean 5G radio share: %.1f%% (paper 55.18%%, ≈1.8× the screen)", 100*nrShare))
	res.Values["nrShare"] = nrShare
	return res
}

func runFig22(cfg Config) Result {
	durations := []time.Duration{time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
		20 * time.Second, 35 * time.Second, 50 * time.Second}
	pts := energy.RunFig22(durations)
	res := Result{Values: map[string]float64{}}
	byDur := map[time.Duration]map[radio.Tech]float64{}
	for _, p := range pts {
		if byDur[p.Duration] == nil {
			byDur[p.Duration] = map[radio.Tech]float64{}
		}
		byDur[p.Duration][p.Tech] = p.JPerBit
	}
	for _, d := range durations {
		m := byDur[d]
		res.Lines = append(res.Lines, line("t=%2.0fs: 4G %6.1f nJ/bit   5G %5.1f nJ/bit   ratio %.1f×",
			d.Seconds(), m[radio.LTE]*1e9, m[radio.NR]*1e9, m[radio.LTE]/m[radio.NR]))
	}
	res.Lines = append(res.Lines,
		"paper: the energy-per-bit of 5G is ≈1/4 of 4G — 5G is efficient only when its bit-rate is actually used")
	res.Values["ratioAt50s"] = byDur[50*time.Second][radio.LTE] / byDur[50*time.Second][radio.NR]
	return res
}

func runFig23(cfg Config) Result {
	// Ten web loads, 3 s apart (t1=10 s offset in the paper; we start at 0).
	tr := energy.Trace{BinDur: 100 * time.Millisecond, Bytes: make([]int64, 320)}
	for l := 0; l < 10; l++ {
		for k := 0; k < 3; k++ {
			tr.Bytes[l*30+k] = 1 << 20
		}
	}
	lte, nsa, m := energy.Showcase(tr)
	return Result{
		Lines: []string{
			line("t1 promotion start: %v   t2 transfer start: %v   t3 transfer end: %v",
				m.PromotionStart, m.TransferStart.Round(time.Millisecond), m.TransferEnd),
			line("t4 LTE tail end: %v   t5 NR tail end: %v (the double NSA tail)",
				m.LTETailEnd.Round(10*time.Millisecond), m.NRTailEnd.Round(10*time.Millisecond)),
			line("session energy: 4G %.1f J, 5G %.1f J → 5G costs %.2f× (paper 1.67×)",
				lte.EnergyJ, nsa.EnergyJ, nsa.EnergyJ/lte.EnergyJ),
			line("tail after last load: 4G %.1f s vs 5G %.1f s (paper ≈10 s vs ≈20 s)",
				(m.LTETailEnd - m.TransferEnd).Seconds(), (m.NRTailEnd - m.TransferEnd).Seconds()),
		},
		Values: map[string]float64{
			"ratio":     nsa.EnergyJ / lte.EnergyJ,
			"lteTailS":  (m.LTETailEnd - m.TransferEnd).Seconds(),
			"nrTailS":   (m.NRTailEnd - m.TransferEnd).Seconds(),
			"lteEnergy": lte.EnergyJ,
			"nsaEnergy": nsa.EnergyJ,
		},
	}
}
