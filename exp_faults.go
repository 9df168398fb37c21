package fivegsim

import (
	"sort"
	"time"

	"fivegsim/internal/deploy"
	"fivegsim/internal/energy"
	"fivegsim/internal/fault"
	"fivegsim/internal/handoff"
	"fivegsim/internal/netsim"
	"fivegsim/internal/radio"
	"fivegsim/internal/transport"
	"fivegsim/internal/wire"
)

// The X9–X11 experiments exercise the fault-injection subsystem
// (internal/fault): what the paper's failure modes — NSA hand-off
// interruptions (§3.4), coverage holes (§3.2) and wired-segment
// degradation (§4.2) — cost in stall time, throughput, energy and
// hand-off churn.
func init() {
	register("X9", "Outage-vs-stall curves (fault-injected bulk TCP)", runX9Outage)
	register("X10", "Fault-scenario resilience suite, bbr (incl. 4G-fallback energy)", runX10Scenarios)
	register("X11", "Coverage-hole hand-off storm (fault-injected campaign)", runX11Holes)
}

// faultPath returns the calibrated 5G daytime path with the given plan
// armed on top of the run's telemetry options. A nil plan is the clean
// path even when cfg.Faults is set — the fault experiments pick their
// own plans per data point.
func faultPath(cfg Config, plan *fault.Plan) netsim.PathConfig {
	c := cfg
	c.Faults = plan
	return c.obsPath(radio.NR, true)
}

// stallTime totals the receiver's dead air: 100 ms RxRate windows that
// delivered nothing after the flow first moved — the app-layer outage a
// user perceives, as opposed to the injected radio outage itself.
func stallTime(rs []transport.RateSample) time.Duration {
	started := false
	var stalled time.Duration
	for _, s := range rs {
		if s.Bps > 0 {
			started = true
		} else if started {
			stalled += 100 * time.Millisecond
		}
	}
	return stalled
}

// radioEnergyJ integrates the Fig. 21 active-use radio envelope over the
// receiver rate series, switching to the 4G envelope inside the plan's
// CellFailure fallback windows (a nil plan never falls back).
func radioEnergyJ(rs []transport.RateSample, plan *fault.Plan) float64 {
	const window = 0.1 // RxRates are 100 ms bins
	var joules float64
	for _, s := range rs {
		prof := energy.ActiveUseFor(radio.NR)
		if plan.FallbackAt(s.At) {
			prof = energy.ActiveUseFor(radio.LTE)
		}
		joules += prof.RadioPowerW(s.Bps) * window
	}
	return joules
}

// runX9Outage sweeps radio-outage length against TCP stall time: a
// single LinkOutage at t=3 s, from half a hand-off to a multi-second
// signaling storm, against both loss-based and model-based congestion
// control. The paper's Fig. 12 observation — the app-layer stall is a
// multiple of the signaling interruption — falls out of the ratio
// column. With cfg.Faults set, the custom plan is appended as an extra
// data point.
func runX9Outage(cfg Config) Result {
	d := bulkDur(cfg)
	nsaHO := handoff.ExpectedLatency(handoff.FiveToFive)
	ladder := []time.Duration{50 * time.Millisecond, nsaHO, 300 * time.Millisecond, time.Second, 3 * time.Second}
	ctrls := []string{"cubic", "bbr"}
	cols := 1 + len(ladder) // column 0 is the clean baseline
	// Each (controller, outage) cell is an independent DES world.
	runs := sweep(cfg, len(ctrls)*cols, func(c Config, k int) transport.BulkResult {
		ci, oi := k/cols, k%cols
		var plan *fault.Plan
		if oi > 0 {
			plan = fault.Outage("x9-outage", 3*time.Second, ladder[oi-1])
		}
		return transport.RunBulk(faultPath(c, plan), ctrls[ci], d)
	})
	res := Result{Values: map[string]float64{}}
	for ci, name := range ctrls {
		base := runs[ci*cols]
		res.Lines = append(res.Lines, line("%-6s clean: %6.1f Mb/s", name, base.ThroughputBps/1e6))
		res.Values[name+"CleanMbps"] = base.ThroughputBps / 1e6
		for oi, out := range ladder {
			r := runs[ci*cols+1+oi]
			stall := stallTime(r.RxRates)
			res.Lines = append(res.Lines, line("%-6s outage %6.0f ms: %6.1f Mb/s (%3.0f%% kept), stall %6.0f ms (%.1f× the outage)",
				name, float64(out)/1e6, r.ThroughputBps/1e6, 100*r.ThroughputBps/base.ThroughputBps,
				float64(stall)/1e6, float64(stall)/float64(out)))
			res.Values[line("%sStallMs@%.0f", name, float64(out)/1e6)] = float64(stall) / 1e6
		}
	}
	if cfg.Faults != nil {
		r := transport.RunBulk(faultPath(cfg, cfg.Faults), "bbr", d)
		res.Lines = append(res.Lines, line("custom plan %q (bbr): %6.1f Mb/s, stall %6.0f ms, injected outage %6.0f ms",
			cfg.Faults.Name, r.ThroughputBps/1e6, float64(stallTime(r.RxRates))/1e6,
			float64(cfg.Faults.OutageTotal())/1e6))
	}
	res.Lines = append(res.Lines,
		"§3.4: the data plane stalls for longer than the signaling interruption — RTO backoff and",
		line("cwnd collapse amplify the %0.0f ms NSA roll-back into app-layer outages", float64(nsaHO)/1e6))
	return res
}

// runX10Scenarios runs one bulk BBR flow through every fault.Scenario
// preset and compares it against the clean path: throughput retention,
// perceived stall, and — for the cell-failover preset — the radio-energy
// cost of dwelling on the 4G fallback envelope. The backhaul-brownout
// preset is additionally projected onto the wired probe model
// (wire.Degradation) to show what a traceroute would see.
func runX10Scenarios(cfg Config) Result {
	d := bulkDur(cfg)
	scens := fault.Scenarios()
	// Index 0 is the clean baseline; each scenario is its own DES world.
	runs := sweep(cfg, 1+len(scens), func(c Config, k int) transport.BulkResult {
		var plan *fault.Plan
		if k > 0 {
			plan = scens[k-1].Plan()
		}
		return transport.RunBulk(faultPath(c, plan), "bbr", d)
	})
	base := runs[0]
	res := Result{Values: map[string]float64{}}
	res.Lines = append(res.Lines, line("%-18s %8.1f Mb/s", "clean", base.ThroughputBps/1e6))
	res.Values["cleanMbps"] = base.ThroughputBps / 1e6
	for i, s := range scens {
		r := runs[1+i]
		plan := s.Plan()
		res.Lines = append(res.Lines, line("%-18s %8.1f Mb/s (%3.0f%% kept), stall %6.0f ms, %d fault(s) over %.1f s",
			s, r.ThroughputBps/1e6, 100*r.ThroughputBps/base.ThroughputBps,
			float64(stallTime(r.RxRates))/1e6, len(plan.Faults), plan.Duration().Seconds()))
		res.Values[string(s)+"Kept"] = r.ThroughputBps / base.ThroughputBps
	}
	// Energy cost of failure-induced 4G fallback: same delivered-rate
	// series, 4G envelope inside the fallback window. Normalize per
	// delivered megabyte so the lower fallback rate doesn't hide the
	// costlier-per-bit 4G radio.
	cfPlan := fault.CellFailover.Plan()
	var cfRun transport.BulkResult
	for i, s := range scens {
		if s == fault.CellFailover {
			cfRun = runs[1+i]
		}
	}
	cleanJ := radioEnergyJ(base.RxRates, nil)
	cfJ := radioEnergyJ(cfRun.RxRates, cfPlan)
	cleanMB := base.ThroughputBps * d.Seconds() / 8e6
	cfMB := cfRun.ThroughputBps * d.Seconds() / 8e6
	res.Lines = append(res.Lines, line("cell-failover radio energy: %.1f J for %.0f MB (%.3f J/MB) vs clean %.1f J for %.0f MB (%.3f J/MB)",
		cfJ, cfMB, cfJ/cfMB, cleanJ, cleanMB, cleanJ/cleanMB))
	res.Values["failoverJPerMB"] = cfJ / cfMB
	res.Values["cleanJPerMB"] = cleanJ / cleanMB
	// What the brownout looks like to the wired probe model (Fig. 13).
	extra, scale := fault.BackhaulBrownout.Plan().WiredBrownout()
	srv := wire.Servers[0]
	clean := wire.MeanRTT(wire.MeasureServer(radio.NR, srv, 30, cfg.Seed))
	brown := wire.MeanRTT(wire.MeasureServerDegraded(radio.NR, srv, 30, cfg.Seed,
		wire.Degradation{ExtraRTT: extra, JitterScale: scale}))
	res.Lines = append(res.Lines, line("brownout on the probe path (%s): mean RTT %.1f ms → %.1f ms (+%.0f ms inflation, %.1f× jitter)",
		srv.Name, float64(clean)/1e6, float64(brown)/1e6, float64(brown-clean)/1e6, scale))
	res.Lines = append(res.Lines,
		"§4.2: the wired segment degrades rather than fails — loss-based TCP collapses first;",
		"§3.2+§6: losing the NR leg trades throughput for a costlier-per-bit 4G radio envelope")
	return res
}

// runX11Holes carves failed cells out of the coverage map and walks the
// hand-off campaign through the hole: the storm the paper's §3.2
// coverage holes imply — extra hand-offs, vertical drops to 4G, and
// 4G-only dwell time. The default hole fails the two NR cells the
// intact baseline walk leaned on hardest (a worst-case, seed-keyed
// hole); a cfg.Faults plan with CellFailure faults overrides it.
func runX11Holes(cfg Config) Result {
	hcfg := handoff.DefaultConfig()
	const walks = 2
	hcfg.Duration = 20 * time.Minute
	if cfg.Quick {
		hcfg.Duration = 6 * time.Minute
	}
	campus := deploy.New(cfg.Seed)
	baseCamp := handoff.RunCampaigns(campus, hcfg, cfg.Seed, walks, cfg.Workers)
	plan := cfg.Faults
	if len(plan.DownPCIs()) == 0 {
		plan = fault.CoverageHole("busiest-nr-cells", hcfg.Duration, busiestNRCells(baseCamp, 2)...)
	}
	holed := hcfg
	holed.CellDown = plan.CellDown
	holedCamp := handoff.RunCampaigns(campus, holed, cfg.Seed, walks, cfg.Workers)

	minutes := float64(walks) * hcfg.Duration.Minutes()
	walked := time.Duration(walks) * hcfg.Duration
	hoPerMin := func(c *handoff.Campaign) float64 { return float64(len(c.Events)) / minutes }
	verticals := func(c *handoff.Campaign) int {
		return len(c.ByKind(handoff.FiveToFour)) + len(c.ByKind(handoff.FourToFive))
	}
	res := Result{Values: map[string]float64{}}
	res.Lines = append(res.Lines, line("hole plan %q: cells %v down, %d walks × %.0f min",
		plan.Name, plan.DownPCIs(), walks, hcfg.Duration.Minutes()))
	res.Lines = append(res.Lines, line("intact campus: %5.2f HOs/min, %3d vertical, 4G-only dwell %5.1f%%",
		hoPerMin(baseCamp), verticals(baseCamp), 100*float64(baseCamp.On4G)/float64(walked)))
	res.Lines = append(res.Lines, line("holed campus:  %5.2f HOs/min, %3d vertical, 4G-only dwell %5.1f%%",
		hoPerMin(holedCamp), verticals(holedCamp), 100*float64(holedCamp.On4G)/float64(walked)))
	res.Lines = append(res.Lines,
		"§3.2: 5G coverage holes don't just dent RSRP — they trigger hand-off churn and park the",
		"NSA phone on its 4G master, compounding into the §3.4 latency and §6 energy penalties")
	res.Values["hoPerMinBase"] = hoPerMin(baseCamp)
	res.Values["hoPerMinHoled"] = hoPerMin(holedCamp)
	res.Values["on4GFracHoled"] = float64(holedCamp.On4G) / float64(walked)
	res.Values["verticalHoled"] = float64(verticals(holedCamp))
	return res
}

// busiestNRCells ranks the NR cells by how often the campaign's
// hand-offs touched them and returns the top n — the cells whose failure
// hurts this walk the most. The ranking is a pure function of the
// campaign (ties break toward the lower PCI), so the derived hole keeps
// the determinism contract.
func busiestNRCells(c *handoff.Campaign, n int) []int {
	counts := map[int]int{}
	for _, e := range c.Events {
		switch e.Kind {
		case handoff.FiveToFive:
			counts[e.FromPCI]++
			counts[e.ToPCI]++
		case handoff.FiveToFour:
			counts[e.FromPCI]++
		case handoff.FourToFive:
			counts[e.ToPCI]++
		}
	}
	pcis := make([]int, 0, len(counts))
	for pci := range counts {
		pcis = append(pcis, pci)
	}
	sort.Slice(pcis, func(i, j int) bool {
		if counts[pcis[i]] != counts[pcis[j]] {
			return counts[pcis[i]] > counts[pcis[j]]
		}
		return pcis[i] < pcis[j]
	})
	if len(pcis) > n {
		pcis = pcis[:n]
	}
	sort.Ints(pcis)
	return pcis
}
