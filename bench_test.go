package fivegsim

import (
	"context"
	"strings"
	"testing"
	"time"

	"fivegsim/internal/des"
)

// Each benchmark regenerates one table or figure of the paper's
// evaluation (quick fidelity: shorter flows, fewer samples — every
// qualitative result is preserved). The headline metric of each
// experiment is attached via b.ReportMetric so `go test -bench` output
// doubles as a compact reproduction report.

func benchExperiment(b *testing.B, id string, metric string) {
	b.Helper()
	cfg := QuickConfig()
	var last Result
	for i := 0; i < b.N; i++ {
		res, err := RunContext(context.Background(), id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if metric != "" {
		if v, ok := last.Values[metric]; ok {
			// ReportMetric units must not contain whitespace.
			b.ReportMetric(v, strings.ReplaceAll(metric, " ", "_"))
		}
	}
}

func BenchmarkTable1_PhysicalInfo(b *testing.B)      { benchExperiment(b, "T1", "rsrp5G") }
func BenchmarkTable2_RSRPDistribution(b *testing.B)  { benchExperiment(b, "T2", "holes5G") }
func BenchmarkTable3_BufferEstimation(b *testing.B)  { benchExperiment(b, "T3", "wired5G") }
func BenchmarkTable4_EnergyModels(b *testing.B)      { benchExperiment(b, "T4", "Web/NR NSA") }
func BenchmarkFigure2_CoverageMap(b *testing.B)      { benchExperiment(b, "F2", "radius5G") }
func BenchmarkFigure3_IndoorOutdoorGap(b *testing.B) { benchExperiment(b, "F3", "drop5G") }
func BenchmarkFigure4_HandoffRSRQTrace(b *testing.B) { benchExperiment(b, "F4", "hoIdx") }
func BenchmarkFigure5_HandoffRSRQGap(b *testing.B)   { benchExperiment(b, "F5", "overall") }
func BenchmarkFigure6_HandoffLatency(b *testing.B)   { benchExperiment(b, "F6", "latency5G-5G") }
func BenchmarkFigure7_Throughput(b *testing.B)       { benchExperiment(b, "F7", "5G_bbr") }
func BenchmarkFigure8_CwndEvolution(b *testing.B)    { benchExperiment(b, "F8", "cubicLossEvents") }
func BenchmarkFigure9_LossVsLoad(b *testing.B)       { benchExperiment(b, "F9", "5G@1/2") }
func BenchmarkFigure10_HARQRetx(b *testing.B)        { benchExperiment(b, "F10", "max5G") }
func BenchmarkFigure11_BurstyLoss(b *testing.B)      { benchExperiment(b, "F11", "burstFrac") }
func BenchmarkFigure12_HandoffThroughputDrop(b *testing.B) {
	benchExperiment(b, "F12", "drop5G-5G")
}
func BenchmarkFigure13_RTTScatter(b *testing.B)    { benchExperiment(b, "F13", "oneWay5Gms") }
func BenchmarkFigure14_HopBreakdown(b *testing.B)  { benchExperiment(b, "F14", "coreGapMs") }
func BenchmarkFigure15_RTTvsDistance(b *testing.B) { benchExperiment(b, "F15", "") }
func BenchmarkFigure16_PageLoadTime(b *testing.B)  { benchExperiment(b, "F16", "dlReduction") }
func BenchmarkFigure17_ImagePLT(b *testing.B)      { benchExperiment(b, "F17", "") }
func BenchmarkFigure18_VideoThroughput(b *testing.B) {
	benchExperiment(b, "F18", "5G5.7Kstatic")
}
func BenchmarkFigure19_VideoFluctuation(b *testing.B) { benchExperiment(b, "F19", "freezes") }
func BenchmarkFigure20_FrameDelay(b *testing.B)       { benchExperiment(b, "F20", "delay5Gms") }
func BenchmarkFigure21_PowerBreakdown(b *testing.B)   { benchExperiment(b, "F21", "nrShare") }
func BenchmarkFigure22_EnergyPerBit(b *testing.B)     { benchExperiment(b, "F22", "ratioAt50s") }
func BenchmarkFigure23_EnergyTrace(b *testing.B)      { benchExperiment(b, "F23", "ratio") }

// Campaign-engine benches: the full quick campaign serially and on an
// 8-worker pool. Reports are bit-identical either way (the determinism
// contract, see DESIGN.md); only wall-clock may differ. A full campaign
// is minutes of work — run these with `-benchtime=1x`:
//
//	go test -run xxx -bench BenchmarkRunAllWorkers -benchtime=1x .

func benchRunAll(b *testing.B, workers int) {
	b.Helper()
	cfg := QuickConfig()
	cfg.Workers = workers
	for i := 0; i < b.N; i++ {
		if res, _ := RunExperimentsContext(context.Background(), cfg); len(res) == 0 {
			b.Fatal("empty campaign")
		}
	}
}

func BenchmarkRunAllWorkers1(b *testing.B) { benchRunAll(b, 1) }
func BenchmarkRunAllWorkers8(b *testing.B) { benchRunAll(b, 8) }

// BenchmarkScheduler measures the DES scheduler's cost per event. It
// drives a self-perpetuating event chain with a standing population of
// pending events, approximating the scheduler load of a packet-level
// run: every fired event reschedules itself and arms one more that fires
// fanout+i µs later. Nothing is canceled: the scheduler has no
// cancellation. A scheduler counts in plain fields and publishes its
// counts only when released, so a run with telemetry costs per event
// what one without does.
func BenchmarkScheduler(b *testing.B) {
	const fanout = 32
	s := des.New()
	fired := 0
	noop := func() {}
	var tick func()
	tick = func() {
		fired++
		if fired >= b.N {
			return
		}
		s.After(time.Duration(fanout+fired%fanout)*time.Microsecond, noop)
		s.After(time.Microsecond, tick)
	}
	s.After(0, tick)
	b.ResetTimer()
	s.Run()
}

// Ablation benches (the DESIGN.md extensions beyond the paper's figures).

// BenchmarkAblation_SAHandoff compares the hypothetical standalone-mode
// hand-off against the measured NSA ladder.
func BenchmarkAblation_SAHandoff(b *testing.B) {
	benchExperiment(b, "X5", "nsaOverSA")
}

// BenchmarkExtension_MPTCP pools the two radios with multipath TCP (the
// paper's §6.3 future-work item).
func BenchmarkExtension_MPTCP(b *testing.B) {
	benchExperiment(b, "X8", "totalMbps")
}

// BenchmarkExtension_MEC runs the §8 edge-computing ablation.
func BenchmarkExtension_MEC(b *testing.B) {
	benchExperiment(b, "X2", "cubicGain")
}

// BenchmarkExtension_DSL runs the §8 5G-as-DSL feasibility study.
func BenchmarkExtension_DSL(b *testing.B) {
	benchExperiment(b, "X1", "perHouseMbps")
}

// BenchmarkExtension_RRCInactive measures the SA energy-state extension.
func BenchmarkExtension_RRCInactive(b *testing.B) {
	benchExperiment(b, "X6", "rrciJ")
}

// BenchmarkExtension_PopulationLoad runs the population-scale cell-load
// experiment (quick: 2000 PPP UEs × 25 scheduling ticks).
func BenchmarkExtension_PopulationLoad(b *testing.B) {
	benchExperiment(b, "X12", "jain")
}
