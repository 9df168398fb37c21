package fivegsim

import (
	"time"

	"fivegsim/internal/cc"
	"fivegsim/internal/des"
	"fivegsim/internal/handoff"
	"fivegsim/internal/netsim"
	"fivegsim/internal/radio"
	"fivegsim/internal/rng"
	"fivegsim/internal/stats"
	"fivegsim/internal/transport"
	"fivegsim/internal/wire"
)

func init() {
	register("T3", "In-network buffer estimation (max-min delay)", runTable3)
	register("F7", "UDP baselines and TCP bandwidth utilization", runFig7)
	register("F8", "cwnd evolution: Cubic vs BBR over 5G", runFig8)
	register("F9", "UDP packet loss vs load fraction", runFig9)
	register("F10", "RAN HARQ retransmission statistics", runFig10)
	register("F11", "Bursty loss pattern of 5G", runFig11)
	register("F12", "TCP throughput drop across hand-offs", runFig12)
}

func bulkDur(cfg Config) time.Duration {
	if cfg.Quick {
		return 8 * time.Second
	}
	return 20 * time.Second
}

func udpDur(cfg Config) time.Duration {
	if cfg.Quick {
		return 6 * time.Second
	}
	return 15 * time.Second
}

func runTable3(cfg Config) Result {
	d := 20 * time.Second
	if cfg.Quick {
		d = 8 * time.Second
	}
	// The two technologies' estimation runs are independent DES worlds.
	ests := sweep(cfg, 2, func(c Config, i int) wire.BufferEstimate {
		pcfg := c.obsPath([]radio.Tech{radio.NR, radio.LTE}[i], true)
		pcfg.Seed = cfg.Seed
		return wire.EstimateBuffers(pcfg, d)
	})
	nr, lte := ests[0], ests[1]
	return Result{
		ID: "T3", Title: "Buffer sizes (60 B packets at an assumed 1 Gb/s)",
		Lines: []string{
			line("        RAN      wired    whole path"),
			line("4G   %6d   %8d   %8d   (paper 468 / 10539 / 11007)", lte.RAN, lte.Wired, lte.WholePath),
			line("5G   %6d   %8d   %8d   (paper 2586 / 26724 / 29310)", nr.RAN, nr.Wired, nr.WholePath),
			line("wired ratio 5G/4G: %.2f× (paper ≈2.5×) — the wired buffer dominates and is"+
				" under-provisioned for 5G; the Stanford rule wants 880/130 ≈ 6.8×", float64(nr.Wired)/float64(lte.Wired)),
		},
		Values: map[string]float64{
			"wired5G": float64(nr.Wired), "wired4G": float64(lte.Wired),
			"ran5G": float64(nr.RAN), "ran4G": float64(lte.RAN),
		},
	}
}

func runFig7(cfg Config) Result {
	res := Result{ID: "F7", Title: "UDP baselines and TCP utilization", Values: map[string]float64{}}
	paperBase := map[string]float64{"5G day": 880, "5G night": 900, "4G day": 130, "4G night": 200}
	baselines := map[radio.Tech]float64{}
	for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
		for _, daytime := range []bool{true, false} {
			name := tech.String() + " night"
			if daytime {
				name = tech.String() + " day"
			}
			b := netsim.UDPBaseline(cfg.obsPath(tech, daytime), udpDur(cfg))
			res.Lines = append(res.Lines, line("UDP baseline %-9s: %6.0f Mb/s (paper %.0f)", name, b.DeliveredBps/1e6, paperBase[name]))
			res.Values["udp"+name] = b.DeliveredBps
			if daytime {
				baselines[tech] = b.DeliveredBps
			}
		}
	}
	paperUtil := map[string][2]float64{ // 5G, 4G (−1 = not reported)
		"reno": {21.1, 52.9}, "cubic": {31.9, 64.4}, "vegas": {12.1, -1}, "veno": {14.3, -1}, "bbr": {82.5, 79.1},
	}
	for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
		for _, name := range cc.Names() {
			r := transport.RunBulk(cfg.obsPath(tech, true), name, bulkDur(cfg))
			util := r.Utilization(baselines[tech])
			idx := 0
			if tech == radio.LTE {
				idx = 1
			}
			ref := paperUtil[name][idx]
			refStr := "n/r"
			if ref >= 0 {
				refStr = line("%.1f%%", ref)
			}
			res.Lines = append(res.Lines, line("%v %-6s: %6.1f Mb/s  util %5.1f%% (paper %s)",
				tech, name, r.ThroughputBps/1e6, 100*util, refStr))
			res.Values[tech.String()+"_"+name] = util
		}
	}
	return res
}

func runFig8(cfg Config) Result {
	d := bulkDur(cfg)
	pathCfg := cfg.obsPath(radio.NR, true)
	bbr := transport.RunBulk(pathCfg, "bbr", d)
	cubic := transport.RunBulk(pathCfg, "cubic", d)
	res := Result{ID: "F8", Title: "cwnd evolution over 5G", Values: map[string]float64{}}
	pick := func(tr []transport.CwndSample, at time.Duration) int {
		best := 0
		for _, s := range tr {
			if s.At <= at {
				best = s.Cwnd
			}
		}
		return best
	}
	for t := time.Duration(0); t <= d; t += d / 8 {
		res.Lines = append(res.Lines, line("t=%4.1fs  cwnd bbr=%7d KB  cubic=%5d KB",
			t.Seconds(), pick(bbr.CwndTrace, t)/1000, pick(cubic.CwndTrace, t)/1000))
	}
	res.Lines = append(res.Lines, line("cubic: %d loss events, %d retransmissions (the frequent multiplicative decreases of Fig. 8)",
		cubic.LossEvents, cubic.Retransmits))
	res.Values["bbrFinalKB"] = float64(pick(bbr.CwndTrace, d)) / 1000
	res.Values["cubicFinalKB"] = float64(pick(cubic.CwndTrace, d)) / 1000
	res.Values["cubicLossEvents"] = float64(cubic.LossEvents)
	return res
}

func runFig9(cfg Config) Result {
	res := Result{ID: "F9", Title: "UDP loss vs load", Values: map[string]float64{}}
	paper5 := map[string]float64{"1/5": 0.5, "1/4": 0.7, "1/3": 1.0, "1/2": 3.1, "1": 4.5}
	techs := []radio.Tech{radio.NR, radio.LTE}
	loads := []struct {
		name string
		frac float64
	}{{"1/5", 0.2}, {"1/4", 0.25}, {"1/3", 1.0 / 3}, {"1/2", 0.5}, {"1", 1}}
	// Each tech × load point is an independent DES world; rows are
	// assembled from the ordered results afterwards.
	losses := sweep(cfg, len(techs)*len(loads), func(c Config, k int) float64 {
		pcfg := c.obsPath(techs[k/len(loads)], true)
		return netsim.RunUDP(pcfg, pcfg.RANRateBps*loads[k%len(loads)].frac, udpDur(cfg)).LossRate
	})
	for ti, tech := range techs {
		row := tech.String() + ": "
		for li, f := range loads {
			loss := losses[ti*len(loads)+li]
			ref := ""
			if tech == radio.NR {
				ref = line("(≈%.1f)", paper5[f.name])
			}
			row += line("%s→%.2f%%%s ", f.name, 100*loss, ref)
			res.Values[tech.String()+"@"+f.name] = loss
		}
		res.Lines = append(res.Lines, row)
	}
	res.Lines = append(res.Lines, "paper: 5G loss exceeds 3.1% at 1/2 load — ≈10× the 4G session")
	return res
}

func runFig10(cfg Config) Result {
	res := Result{ID: "F10", Title: "HARQ retransmissions", Values: map[string]float64{}}
	for _, tech := range []radio.Tech{radio.LTE, radio.NR} {
		pcfg := cfg.obsPath(tech, true)
		sch := des.New()
		path := netsim.NewPath(sch, pcfg)
		end := udpDur(cfg)
		path.StartCBR(pcfg.RANRateBps, end)
		sch.RunUntil(end + time.Second)
		row := tech.String() + " retx distribution: "
		maxK := 0
		for k := 1; k <= 6; k++ {
			if frac, ok := path.RAN.Retransmissions()[k]; ok {
				row += line("%d×=%.2f%% ", k, 100*frac)
				maxK = k
			}
		}
		row += line("(max %d; paper: ≤4 on 4G, ≤2 on 5G; residual loss %d)", maxK, path.RAN.ResidualLoss)
		res.Lines = append(res.Lines, row)
		res.Values["max"+tech.String()] = float64(maxK)
	}
	return res
}

func runFig11(cfg Config) Result {
	pcfg := cfg.obsPath(radio.NR, true)
	r := netsim.RunUDP(pcfg, pcfg.RANRateBps*0.9, udpDur(cfg))
	runs := r.LossRuns
	long := 0
	maxRun := 0
	for _, run := range runs {
		if run.Len >= 5 {
			long++
		}
		maxRun = max(maxRun, run.Len)
	}
	return Result{
		ID: "F11", Title: "Bursty loss pattern",
		Lines: []string{
			line("5G at 0.9× baseline: loss %.2f%%, %d loss runs, %.1f%% are bursts ≥5 pkts, longest run %d",
				100*r.LossRate, len(runs), 100*float64(long)/float64(max(1, len(runs))), maxRun),
			"paper: \"the packet loss in 5G exhibits a clear bursty pattern ... caused by the intermittent buffer overflow\"",
		},
		Values: map[string]float64{"burstFrac": float64(long) / float64(max(1, len(runs)))},
	}
}

func runFig12(cfg Config) Result {
	res := Result{ID: "F12", Title: "TCP throughput drop at hand-off", Values: map[string]float64{}}
	paper := map[handoff.Kind]float64{handoff.FourToFour: 20.10, handoff.FiveToFive: 73.15, handoff.FiveToFour: 83.04}
	reps := 12
	if cfg.Quick {
		reps = 5
	}
	for _, kind := range []handoff.Kind{handoff.FourToFour, handoff.FiveToFive, handoff.FiveToFour} {
		tech := radio.NR
		if kind == handoff.FourToFour {
			tech = radio.LTE
		}
		// Each rep is an independent flow seeded by its rep index.
		drops := sweep(cfg, reps, func(c Config, i int) float64 {
			return hoThroughputDrop(c, tech, kind, cfg.Seed+int64(i))
		})
		s := stats.Summarize(drops)
		res.Lines = append(res.Lines, line("%-5s: throughput drop %5.1f%% ± %.1f (paper %.2f%%)", kind, 100*s.Mean, 100*s.Std, paper[kind]))
		res.Values["drop"+kind.String()] = s.Mean
	}
	res.Lines = append(res.Lines, "paper: the NSA roll-back makes 5G hand-offs interrupt TCP far longer than 4G ones")
	return res
}

// hoThroughputDrop runs a BBR flow, injects one hand-off outage of the
// kind's signaling latency, and measures the windowed throughput drop
// right after the hand-off (Fig. 12 methodology: 10 ms windows around the
// event; we use the 200 ms after vs the 1 s before).
func hoThroughputDrop(cfg Config, tech radio.Tech, kind handoff.Kind, seed int64) float64 {
	pcfg := cfg.obsPath(tech, true)
	pcfg.Seed = seed
	sch := des.New()
	path := netsim.NewPath(sch, pcfg)
	conn := transport.NewConn(sch, path, "bbr", transport.Bulk)
	conn.Start()
	hoAt := 6 * time.Second
	_, outage := handoff.Execute(kind, rng.New(seed).Stream("f12"))
	// A 5G→4G hand-off also drops the radio rate to the 4G baseline.
	//
	sch.At(hoAt, func() {
		path.Outage(outage)
		if kind == handoff.FiveToFour {
			path.SetRANRate(netsim.DefaultPath(radio.LTE, true).RANRateBps)
		}
	})
	sch.RunUntil(hoAt + time.Second)
	var before, after float64
	nb := 0
	haveAfter := false
	for _, w := range conn.RxRates() {
		if w.At > hoAt-time.Second && w.At <= hoAt {
			before += w.Bps
			nb++
		}
		// The first full window immediately after the hand-off (the
		// paper's "immediately after" measurement).
		if !haveAfter && w.At > hoAt {
			after = w.Bps
			haveAfter = true
		}
	}
	if nb == 0 || !haveAfter || before == 0 {
		return 0
	}
	drop := 1 - after/(before/float64(nb))
	if drop < 0 {
		drop = 0
	}
	return drop
}
