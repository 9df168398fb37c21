// Package perf is the benchmark-regression harness behind `fgperf bench`:
// a fixed set of named hot-path benchmarks run through testing.Benchmark,
// serialized to JSON with enough host metadata to decide whether two
// reports are comparable, and a comparator that gates CI on allocation
// and wall-clock regressions (see compare.go).
package perf

import (
	"context"
	"testing"
	"time"

	"fivegsim"
	"fivegsim/internal/coverage"
	"fivegsim/internal/deploy"
	"fivegsim/internal/des"
	"fivegsim/internal/geom"
	"fivegsim/internal/netsim"
	"fivegsim/internal/obs"
	"fivegsim/internal/pop"
	"fivegsim/internal/radio"
)

// Spec is one named benchmark. Quick marks the cheap benchmarks included
// in `fgperf bench -quick` (the CI smoke set); the full set adds the
// campaign-scale runs, which take minutes.
type Spec struct {
	Name  string
	Quick bool
	Fn    func(b *testing.B)
}

// Specs returns the benchmark set, in report order.
func Specs() []Spec {
	return []Spec{
		{Name: "DESStep", Quick: true, Fn: benchDESStep},
		{Name: "PathSaturate", Quick: true, Fn: benchPathSaturate},
		{Name: "Survey", Quick: true, Fn: benchSurvey},
		{Name: "SurveyBatch", Quick: true, Fn: benchSurveyBatch},
		{Name: "SurveyWorkers8", Fn: benchSurveyWorkers8},
		{Name: "PopTick100k", Quick: true, Fn: benchPopTick100k},
		{Name: "PopTick100kChurn", Quick: true, Fn: benchPopTick100kChurn},
		{Name: "PopTick100kTel", Fn: benchPopTick100kTel},
		{Name: "RunAllWorkers1", Fn: func(b *testing.B) { benchRunAll(b, 1) }},
		{Name: "RunAllWorkers8", Fn: func(b *testing.B) { benchRunAll(b, 8) }},
	}
}

// benchDESStep measures one scheduler step of a self-perpetuating event
// chain with a standing population of pending timers: every fired event
// reschedules itself and one in four cancels a previously armed timer.
// This is the same load shape as the root package's scheduler bench.
func benchDESStep(b *testing.B) {
	b.ReportAllocs()
	s := des.New()
	const fanout = 32
	fired := 0
	var timers [fanout]des.Timer
	var tick func()
	tick = func() {
		fired++
		if fired >= b.N {
			return
		}
		i := fired % fanout
		if fired%4 == 0 {
			timers[i].Cancel()
		}
		timers[i] = s.After(time.Duration(fanout+i)*time.Microsecond, func() {})
		s.After(time.Microsecond, tick)
	}
	s.After(0, tick)
	b.ResetTimer()
	s.Run()
}

// benchPathSaturate measures the packet hot path end to end — pool
// checkout, four wired hops, cross traffic, HARQ, delivery, release — in
// steady state: one long-lived Saturator, warmed until the pipe is full,
// advanced one 100 ms slice of simulated time per op at 1.08× the radio
// goodput. The per-op path construction the old RunUDP-based bench paid
// is gone, so this must hold 0 allocs/op (the -compare gate hard-fails
// any allocation).
func benchPathSaturate(b *testing.B) {
	b.ReportAllocs()
	cfg := netsim.DefaultPath(radio.NR, true)
	s := netsim.NewSaturator(cfg, cfg.RANRateBps*1.08)
	s.RunSlice(2 * time.Second) // pipe fill: every further slice is steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.RunSlice(100 * time.Millisecond)
		if res.Received == 0 {
			b.Fatal("no packets delivered")
		}
	}
}

// benchSurvey measures the coverage walk in steady state: one op is a
// 512-sample road survey re-run through a prebuilt Surveyor on a warmed
// campus — the batched-kernel sampling path alone, with the one-time
// campus construction and field-map warm outside the timer. Must hold
// 0 allocs/op.
func benchSurvey(b *testing.B) {
	b.ReportAllocs()
	c := deploy.New(1)
	c.WarmFieldMaps(1)
	sv := coverage.NewSurveyor(c, 512, 1)
	sv.Run(1) // settle any remaining lazy state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sv.Run(1)
		if len(s.Samples) != 512 {
			b.Fatal("short survey")
		}
	}
}

// benchSurveyBatch prices the batched measurement kernel itself: one op
// is a full MeasureAllInto of both technologies at 64 fixed points — the
// RSRP → interference → KPI chain over every cell, with no sampling
// randomness around it.
func benchSurveyBatch(b *testing.B) {
	b.ReportAllocs()
	c := deploy.New(1)
	pts := make([]geom.Point, 64)
	for i := range pts {
		pts[i] = geom.Point{
			X: c.Bounds.Width() * (0.5 + float64(i%8)) / 8,
			Y: c.Bounds.Height() * (0.5 + float64(i/8)) / 8,
		}
	}
	buf := make([]radio.Measurement, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pts {
			buf = c.MeasureAllInto(radio.NR, p, buf[:0])
			buf = c.MeasureAllInto(radio.LTE, p, buf[:0])
		}
	}
}

// benchSurveyWorkers8 measures the sharded survey at the paper's full
// 4630-sample size across 8 workers — the intra-experiment sharding win
// on multi-core hosts. Goroutine scheduling makes its allocation count
// nondeterministic, so it lives in the full set, outside the quick CI
// gate.
func benchSurveyWorkers8(b *testing.B) {
	b.ReportAllocs()
	c := deploy.New(1)
	c.WarmFieldMaps(8)
	sv := coverage.NewSurveyor(c, 4630, 1)
	sv.Run(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := sv.Run(8); len(s.Samples) != 4630 {
			b.Fatal("short survey")
		}
	}
}

// benchPopTick100k measures one population tick at 100k UEs on the
// serial path: move, traffic draw, attach through the warmed field maps,
// counting sort, per-cell PRB scheduling and throughput accumulation.
// The arena is built (and the first tick run) before the timer starts,
// so the measured loop is the steady state — which must stay at
// 0 allocs/op; the -compare gate hard-fails any allocation regression.
func benchPopTick100k(b *testing.B) {
	b.ReportAllocs()
	m := pop.DefaultModel()
	m.N = 100_000
	c := deploy.New(1)
	p := pop.New(c, m, 1)
	p.Tick(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Tick(1)
	}
}

// benchPopTick100kChurn is benchPopTick100k with the population dynamics
// enabled — birth–death churn in steady-state balance, the stateful A3
// hand-off machine and load-coupled interference — pricing the dynamics
// against the static-population tick. The steady-state invariant is the
// same: 0 allocs/op (births reuse free-listed arena slots), and the
// -compare gate hard-fails any allocation regression.
func benchPopTick100kChurn(b *testing.B) {
	b.ReportAllocs()
	m := pop.DefaultModel()
	m.N = 100_000
	m.Churn = pop.ChurnModel{Enabled: true, ArrivalPerTick: 333, MeanLifetimeTicks: 300}
	m.A3 = pop.A3Model{Enabled: true, HysteresisDB: 3, TTTTicks: 3}
	m.LoadCoupling = pop.LoadCouplingModel{Enabled: true, Alpha: 0.3}
	c := deploy.New(1)
	p := pop.New(c, m, 1)
	defer p.RestoreLoads()
	p.Tick(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Tick(1)
	}
}

// benchPopTick100kTel is benchPopTick100k with live telemetry attached
// (registry + tracer): it prices the sharded-counter accumulate/merge
// and the per-tick span against the uninstrumented tick. Full-set only;
// the telemetry-off bench is the CI-gated one.
func benchPopTick100kTel(b *testing.B) {
	b.ReportAllocs()
	m := pop.DefaultModel()
	m.N = 100_000
	c := deploy.New(1)
	p := pop.New(c, m, 1)
	p.Instrument(pop.Telemetry{Obs: obs.NewRegistry(), Trace: obs.NewTracer(0)})
	p.Tick(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Tick(1)
	}
}

// benchRunAll measures the full quick campaign — every experiment of the
// paper — on the given worker count. One op takes minutes; the harness
// runs it once.
func benchRunAll(b *testing.B, workers int) {
	b.ReportAllocs()
	cfg := fivegsim.QuickConfig()
	cfg.Workers = workers
	for i := 0; i < b.N; i++ {
		if res, _ := fivegsim.RunExperimentsContext(context.Background(), cfg); len(res) == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// Run executes the selected benchmarks (all, or the Quick subset, then
// narrowed by filter — nil selects everything) and returns their results
// in Specs order.
func Run(quick bool, filter func(name string) bool, progress func(name string)) []Result {
	var out []Result
	for _, sp := range Specs() {
		if quick && !sp.Quick {
			continue
		}
		if filter != nil && !filter(sp.Name) {
			continue
		}
		if progress != nil {
			progress(sp.Name)
		}
		r := testing.Benchmark(sp.Fn)
		out = append(out, Result{
			Name:        sp.Name,
			N:           r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return out
}
