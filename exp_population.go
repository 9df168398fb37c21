package fivegsim

import (
	"context"

	"fivegsim/internal/coverage"
	"fivegsim/internal/deploy"
	"fivegsim/internal/handoff"
	"fivegsim/internal/pop"
	"fivegsim/internal/radio"
	"fivegsim/internal/stats"
)

// The X12–X14 experiments lift the paper's single-probe methodology to
// population scale (internal/pop): a PPP-placed UE population contends
// for per-cell PRB budgets under the §6 traffic mix, and cell load,
// fairness and outage exposure become emergent properties instead of
// single-walk observations. X14 closes the loop: with the population
// degenerated to the paper's single probe, the pipeline reproduces the
// seed coverage and hand-off experiments bit-for-bit.
func init() {
	register("X12", "Population-scale cell-load distributions (PPP campus)", runX12CellLoad)
	register("X13", "Throughput fairness vs population size (Jain sweep)", runX13Fairness)
	register("X14", "Paper probe as the N=1 population special case", runX14Probe)
	register("X15", "Population dynamics: churn, A3 hand-off storms, load coupling", runX15Dynamics)
}

// popModel returns the campaign population model for a given size.
func popModel(n, ticks int) pop.Model {
	m := pop.DefaultModel()
	m.N = n
	m.Ticks = ticks
	return m
}

// popTelemetry wires the run's observability into a population run:
// pop.* instruments into cfg.Obs, tick spans into cfg.Trace, and — when
// the caller streams events — per-tick EventTick events attributed to
// the experiment.
func popTelemetry(cfg Config, id string) pop.Telemetry {
	t := pop.Telemetry{Obs: cfg.Obs, Trace: cfg.Trace}
	if cfg.OnEvent != nil {
		t.OnTick = func(tick, total int) {
			cfg.OnEvent(Event{Kind: EventTick, Experiment: id, Tick: tick, Ticks: total})
		}
	}
	return t
}

// x12Size returns X12's population size: Config.Population when set,
// otherwise the built-in Quick/full sizing.
func x12Size(cfg Config) int {
	if cfg.Population > 0 {
		return cfg.Population
	}
	if cfg.Quick {
		return 2000
	}
	return 20000
}

func runX12CellLoad(cfg Config) Result {
	n := x12Size(cfg)
	ticks := 100
	if cfg.Quick {
		ticks = 25
	}
	campus := deploy.New(cfg.Seed)
	p, _ := pop.RunContext(context.Background(), campus, popModel(n, ticks), cfg.Seed, cfg.Workers, popTelemetry(cfg, "X12"))

	res := Result{Values: map[string]float64{}}
	res.Lines = append(res.Lines, line("population: %d UEs over %.2f km², %d ticks × %s",
		n, campus.AreaKm2(), ticks, p.Model.TickDur))
	for _, t := range []radio.Tech{radio.NR, radio.LTE} {
		u := p.UtilSamples(t, nil)
		q := stats.Quantiles(u, 0.50, 0.90, 0.99)
		res.Lines = append(res.Lines, line(
			"%-3s PRB utilization: mean %5.1f%%  p50 %5.1f%%  p90 %5.1f%%  p99 %5.1f%% (%d cell-tick samples)",
			t, 100*p.MeanUtil(t), 100*q[0], 100*q[1], 100*q[2], len(u)))
		res.Values["util"+t.String()] = p.MeanUtil(t)
	}
	thr := p.PerUEThroughputBps()
	var outage int
	for i := 0; i < p.Len(); i++ {
		if p.ServingPCI(i) == -1 {
			outage++
		}
	}
	q := stats.Quantiles(thr, 0.10, 0.50, 0.90)
	res.Lines = append(res.Lines, line(
		"per-UE throughput: p10 %6.2f  p50 %6.2f  p90 %6.2f Mb/s   jain %.3f   outage %.2f%%",
		q[0]/1e6, q[1]/1e6, q[2]/1e6, pop.JainIndex(thr), 100*float64(outage)/float64(p.Len())))
	res.Values["jain"] = pop.JainIndex(thr)
	res.Values["outageFrac"] = float64(outage) / float64(p.Len())
	return res
}

// x13Sweep returns X13's population sizes, smallest first. The largest
// point is Config.Population when set.
func x13Sweep(cfg Config) []int {
	top := 50000
	ratios := []int{500, 50, 10, 1} // top/ratio, ascending
	if cfg.Quick {
		top = 5000
		ratios = []int{100, 10, 1}
	}
	if cfg.Population > 0 {
		top = cfg.Population
	}
	out := make([]int, 0, len(ratios))
	for _, r := range ratios {
		n := top / r
		if n < 1 {
			n = 1
		}
		if len(out) > 0 && n <= out[len(out)-1] {
			continue // degenerate override collapsed two points
		}
		out = append(out, n)
	}
	return out
}

func runX13Fairness(cfg Config) Result {
	ticks := 30
	if cfg.Quick {
		ticks = 15
	}
	campus := deploy.New(cfg.Seed)
	res := Result{Values: map[string]float64{}}
	for _, n := range x13Sweep(cfg) {
		p, _ := pop.RunContext(context.Background(), campus, popModel(n, ticks), cfg.Seed, cfg.Workers, popTelemetry(cfg, "X13"))
		thr := p.PerUEThroughputBps()
		j := pop.JainIndex(thr)
		q := stats.Quantiles(thr, 0.10, 0.50, 0.90)
		res.Lines = append(res.Lines, line(
			"N=%6d: jain %.3f  p10 %7.2f  p50 %7.2f  p90 %7.2f Mb/s  NR util %5.1f%%",
			n, j, q[0]/1e6, q[1]/1e6, q[2]/1e6, 100*p.MeanUtil(radio.NR)))
		res.Values[line("jainN%d", n)] = j
	}
	res.Lines = append(res.Lines, line(
		"small N: fairness is mix-limited (saturating bulk UEs dwarf mostly-idle web UEs);"))
	res.Lines = append(res.Lines, line(
		"large N: the max-min split clamps bulk toward the common share, so Jain rises toward"))
	res.Lines = append(res.Lines, line(
		"the mix plateau while absolute per-UE throughput falls with contention"))
	return res
}

// x15Model builds the X15 dynamics model: churn in steady-state balance
// with the initial population (arrivals = N / mean lifetime), the ISP's
// 3 dB / 324 ms A3 configuration, and damped load coupling — every
// population dynamic at its paper-calibrated operating point.
func x15Model(n, ticks int) pop.Model {
	m := popModel(n, ticks)
	m.Churn = pop.ChurnModel{Enabled: true, ArrivalPerTick: float64(n) / 300, MeanLifetimeTicks: 300}
	m.A3 = pop.A3Model{Enabled: true, HysteresisDB: 3, TTTTicks: 3}
	m.LoadCoupling = true
	return m
}

func runX15Dynamics(cfg Config) Result {
	n, ticks := 8000, 120
	if cfg.Quick {
		n, ticks = 1200, 30
	}
	if cfg.Population > 0 {
		n = cfg.Population
	}
	campus := deploy.New(cfg.Seed)
	m := x15Model(n, ticks)
	p, _ := pop.RunContext(context.Background(), campus, m, cfg.Seed, cfg.Workers, popTelemetry(cfg, "X15"))

	res := Result{Values: map[string]float64{}}
	res.Lines = append(res.Lines, line(
		"population: %d UEs (arena %d), churn %.1f arrivals/tick × %g-tick mean lifetime, %d ticks",
		n, p.Len(), m.Churn.ArrivalPerTick, m.Churn.MeanLifetimeTicks, ticks))
	res.Lines = append(res.Lines, line(
		"A3: %.0f dB hysteresis, TTT %d ticks (paper: 3 dB / 324 ms); load EWMA α=%.1f",
		m.A3.HysteresisDB, m.A3.TTTTicks, pop.LoadCouplingAlpha))
	for _, l := range p.DynamicsLines() {
		res.Lines = append(res.Lines, "  "+l)
	}
	ho, pp := p.Handoffs()
	ueTicks := float64(p.Alive()) * float64(ticks) // live-set approximation of exposure
	if ueTicks > 0 {
		perUEMin := float64(ho) / (ueTicks * p.Model.TickDur.Minutes())
		res.Lines = append(res.Lines, line(
			"hand-off rate ≈ %.3f /UE·min; storm peak %d HOs in one tick (%.2f%% of live set)",
			perUEMin, p.PeakHandoffsPerTick(), 100*float64(p.PeakHandoffsPerTick())/float64(p.Alive())))
	}
	ppFrac := 0.0
	if ho > 0 {
		ppFrac = float64(pp) / float64(ho)
	}
	res.Lines = append(res.Lines, line(
		"ping-pong fraction %.1f%% (A→B→A within %d ticks — the paper's cell-edge oscillation)",
		100*ppFrac, pop.PingPongWindowTicks))
	res.Lines = append(res.Lines, line(
		"NR util %.1f%% / LTE util %.1f%% with load-coupled interference",
		100*p.MeanUtil(radio.NR), 100*p.MeanUtil(radio.LTE)))
	res.Values["alive"] = float64(p.Alive())
	res.Values["births"] = float64(p.Births())
	res.Values["deaths"] = float64(p.Deaths())
	res.Values["handoffs"] = float64(ho)
	res.Values["pingpongFrac"] = ppFrac
	res.Values["stormPeak"] = float64(p.PeakHandoffsPerTick())
	res.Values["utilNR"] = p.MeanUtil(radio.NR)
	return res
}

func runX14Probe(cfg Config) Result {
	campus := deploy.New(cfg.Seed)
	res := Result{Values: map[string]float64{}}

	// Coverage side: the N=1 probe survey is the seed T1/T2 pipeline —
	// same samples, any Workers value.
	s := coverage.RunSurvey(campus, surveySamples(cfg), cfg.Seed, cfg.Workers)
	nr := s.RSRPSummary(radio.NR)
	lte := s.RSRPSummary(radio.LTE)
	res.Lines = append(res.Lines, line("probe survey (N=1): 5G RSRP %s (paper −84.03 ± 11.72)", nr))
	res.Lines = append(res.Lines, line("                    4G RSRP %s (paper −84.84 ± 8.72)", lte))
	res.Values["rsrp5G"] = nr.Mean
	res.Values["rsrp4G"] = lte.Mean

	// Hand-off side: the probe campaign is the seed F5/F6 pipeline.
	lat := campaignFor(cfg, campus).Latencies(handoff.FiveToFive)
	if len(lat) > 0 {
		sm := stats.Summarize(lat)
		res.Lines = append(res.Lines, line("probe campaign (N=1): 5G→5G hand-off latency %s ms (paper 108.40 ms)", sm))
		res.Values["latency5G5G"] = sm.Mean
	} else {
		res.Lines = append(res.Lines, line("probe campaign (N=1): no 5G→5G hand-offs in this run"))
	}
	res.Lines = append(res.Lines, line(
		"identical to the seed coverage/hand-off pipelines bit-for-bit (TestSingleUEMatchesProbePipeline"))
	res.Lines = append(res.Lines, line(
		"holds the population engine itself to radio.DLBitRate at surveyed positions)"))
	return res
}
