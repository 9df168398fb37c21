// Command fgpop runs a population-scale campus study: a PPP-placed UE
// population over the deployed campus, contending for per-cell PRB
// budgets under a web/video/bulk traffic mix, and prints the cell-load
// and fairness reports.
//
//	fgpop -n 20000 -ticks 100
//	fgpop -lambda 8000 -mix 0.6,0.3,0.1 -workers 8
//	fgpop -n 1000 -speed 0 -ticks 50        # static PPP snapshot
//	fgpop -n 5000 -metrics                  # print the pop.* snapshot
//	fgpop -n 5000 -trace t.json -results r.ndjson
//	                                        # telemetry artifacts (fgbench parity;
//	                                        # one result/v1 record, ID POP)
//	fgpop -n 5000 -churn 16 -a3 3 -loadfb   # population dynamics: birth–death
//	                                        # churn, stateful A3 hand-off, load
//	                                        # coupling (DESIGN.md §13)
//
// Reports are bit-identical for every -workers value (the internal/par
// determinism contract; internal/pop's determinism suite enforces it),
// with or without telemetry attached.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"fivegsim"
	"fivegsim/internal/deploy"
	"fivegsim/internal/obs"
	"fivegsim/internal/pop"
	"fivegsim/internal/radio"
	"fivegsim/internal/stats"
	"fivegsim/internal/traffic"
)

func main() {
	n := flag.Int("n", 0, "population size (0 = draw from the PPP at -lambda)")
	lambda := flag.Float64("lambda", 5000, "PPP intensity in UEs/km² (used when -n is 0)")
	ticks := flag.Int("ticks", 50, "number of 100 ms scheduling ticks")
	tickDur := flag.Duration("tick", 100*time.Millisecond, "scheduling tick duration")
	seed := flag.Int64("seed", 42, "seed (fixes placement, traffic and mobility)")
	workers := flag.Int("workers", 1, "worker goroutines (0 = GOMAXPROCS); results identical for every value")
	mix := flag.String("mix", "", "traffic mix as web,video,bulk weights, e.g. 0.7,0.2,0.1")
	speed := flag.Float64("speed", 5, "max walking speed in km/h (0 = static population)")
	perCell := flag.Bool("cells", false, "print the per-cell load table")
	metrics := flag.Bool("metrics", false, "collect and print the pop.* metrics snapshot")
	tracePath := flag.String("trace", "", "write a Chrome-trace JSON of the run to this file")
	resultsPath := flag.String("results", "", "write the run as one fivegsim.result/v1 record (ID POP, with its run manifest; fgobs reads it) to this file")
	churn := flag.Float64("churn", 0, "UE churn: Poisson arrivals per tick (0 = fixed population)")
	life := flag.Float64("life", 300, "mean UE lifetime in ticks under -churn")
	a3 := flag.Float64("a3", 0, "stateful A3 hand-off with this hysteresis in dB (0 = memoryless best-server)")
	a3ttt := flag.Int("a3ttt", 3, "A3 time-to-trigger in ticks under -a3")
	loadFb := flag.Bool("loadfb", false, fmt.Sprintf("couple cell interference Load to measured PRB utilization (EWMA, α=%g; takes no value)", pop.LoadCouplingAlpha))
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	m := pop.DefaultModel()
	m.N = *n
	m.LambdaPerKm2 = *lambda
	m.Ticks = *ticks
	m.TickDur = *tickDur
	m.MaxSpeedKmh = *speed
	if *mix != "" {
		w, err := parseMix(*mix)
		if err != nil {
			log.Fatalf("fgpop: %v", err)
		}
		m.Mix = w
	}
	if *churn > 0 {
		m.Churn = pop.ChurnModel{Enabled: true, ArrivalPerTick: *churn, MeanLifetimeTicks: *life}
	}
	if *a3 > 0 {
		m.A3 = pop.A3Model{Enabled: true, HysteresisDB: *a3, TTTTicks: *a3ttt}
	}
	m.LoadCoupling = *loadFb

	var tel pop.Telemetry
	if *metrics || *resultsPath != "" {
		tel.Obs = obs.NewRegistry()
	}
	if *tracePath != "" {
		tel.Trace = obs.NewTracer()
	}

	campus := deploy.New(*seed)
	start := time.Now()
	p, _ := pop.RunContext(context.Background(), campus, m, *seed, *workers, tel)
	elapsed := time.Since(start)

	fmt.Printf("population: %d UEs over %.2f km² (%d NR + %d LTE cells), %d ticks × %s in %v\n",
		p.Alive(), campus.AreaKm2(), len(campus.NRCells), len(campus.LTECells),
		p.Ticks(), m.TickDur, elapsed.Round(time.Millisecond))
	for _, t := range []radio.Tech{radio.NR, radio.LTE} {
		q := stats.Quantiles(p.UtilSamples(t, nil), 0.50, 0.90, 0.99)
		fmt.Printf("%-3s PRB utilization: mean %5.1f%%  p50 %5.1f%%  p90 %5.1f%%  p99 %5.1f%%\n",
			t, 100*p.MeanUtil(t), 100*q[0], 100*q[1], 100*q[2])
	}
	if *perCell {
		for _, l := range p.CellLoadLines() {
			fmt.Println(l)
		}
	}
	for _, l := range p.FairnessLines() {
		fmt.Println(l)
	}
	if *churn > 0 || *a3 > 0 || *loadFb {
		for _, l := range p.DynamicsLines() {
			fmt.Println(l)
		}
	}

	if *metrics {
		fmt.Printf("-- metrics (population run, %d ticks) --\n", p.Ticks())
		fmt.Print(tel.Obs.Text())
	}
	if *tracePath != "" {
		if err := writeFile(*tracePath, tel.Trace.WriteChromeTrace); err != nil {
			log.Fatalf("fgpop: %v", err)
		}
		fmt.Printf("wrote %d trace events to %s (%d overwritten by ring wrap)\n",
			len(tel.Trace.Events()), *tracePath, tel.Trace.Dropped())
	}
	if *resultsPath != "" {
		const id, title = "POP", "population-scale campus run"
		res := fivegsim.Result{ID: id, Title: title,
			Manifest: obs.NewManifest(id, title, *seed, false, start, elapsed, tel.Obs)}
		if err := writeFile(*resultsPath, func(w io.Writer) error { return json.NewEncoder(w).Encode(res) }); err != nil {
			log.Fatalf("fgpop: %v", err)
		}
		fmt.Printf("wrote the run record to %s\n", *resultsPath)
	}
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseMix parses "web,video,bulk" float weights.
func parseMix(s string) (traffic.MixWeights, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return traffic.MixWeights{}, fmt.Errorf("mix %q: want three comma-separated weights", s)
	}
	var w [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v < 0 {
			return traffic.MixWeights{}, fmt.Errorf("mix %q: bad weight %q", s, p)
		}
		w[i] = v
	}
	return traffic.MixWeights{Web: w[0], Video: w[1], Bulk: w[2]}, nil
}
