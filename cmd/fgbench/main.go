// Command fgbench regenerates every table and figure of the paper's
// evaluation from the simulated campaign.
//
// Usage:
//
//	fgbench                 # run everything at full fidelity
//	fgbench -quick          # reduced durations (CI-friendly)
//	fgbench -workers 0      # parallel campaign engine (0 = all cores)
//	fgbench -run F7,T4      # a subset
//	fgbench -list           # enumerate experiments
//	fgbench -metrics        # print the telemetry snapshot per run
//	fgbench -trace out.json # export a Chrome trace (Perfetto-loadable)
//	fgbench -results r.ndjson
//	                        # write one fivegsim.result/v1 record per line,
//	                        # each with its run manifest (see fgobs)
//	fgbench -faults list    # enumerate fault-scenario presets
//	fgbench -faults cell-failover -run X9
//	                        # arm a fault scenario on the selected runs
//
// Reports are bit-identical for every -workers value: the engine shards
// work deterministically and merges in paper order (see DESIGN.md).
// Results stream as they complete (in paper order); a crashed experiment
// prints as FAILED and the campaign carries on.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fivegsim"
	"fivegsim/internal/fault"
	"fivegsim/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "reduced-duration runs")
	seed := flag.Int64("seed", 42, "experiment seed")
	workers := flag.Int("workers", 1, "campaign-engine goroutines: 0 = all cores, 1 = serial")
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	metrics := flag.Bool("metrics", false, "collect and print the metrics snapshot after each experiment")
	tracePath := flag.String("trace", "", "write a Chrome-trace JSON of the campaign to this file")
	resultsPath := flag.String("results", "", "stream results to this file as NDJSON (one fivegsim.result/v1 object per line — the same encoding fgserve serves), with telemetry on")
	faults := flag.String("faults", "", "arm a fault-scenario preset on every run ('list' to enumerate)")
	population := flag.Int("population", 0, "override the population-experiment UE count (X12–X14; 0 = built-in sizing)")
	progress := flag.Bool("progress", false, "stream live start/finish/ETA progress lines to stderr")
	flag.Parse()

	if *list {
		for _, e := range fivegsim.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	if *faults == "list" {
		for _, s := range fault.Scenarios() {
			p := s.Plan()
			fmt.Printf("%-18s %d fault(s) over %.1fs\n", s, len(p.Faults), p.Duration().Seconds())
		}
		return
	}

	collect := *metrics || *resultsPath != ""
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(0)
	}

	var ids []string
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}

	cfg := fivegsim.Config{Seed: *seed, Quick: *quick, Workers: *workers, Trace: tracer,
		Population: *population}
	if *faults != "" {
		s, err := fault.ScenarioByName(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fgbench: %v; try -faults list\n", err)
			os.Exit(1)
		}
		cfg.Faults = s.Plan()
		if len(ids) == 0 {
			// A scenario with no explicit -run means the fault suite.
			ids = []string{"X9", "X10", "X11"}
		}
	}
	if collect {
		// RunExperimentsContext gives every experiment its own
		// sub-registry, so each manifest's snapshot is attributable to
		// that run alone; cfg.Obs accumulates the campaign-wide merge.
		cfg.Obs = obs.NewRegistry()
	}
	var resultsEnc *json.Encoder
	var resultsFile *os.File
	if *resultsPath != "" {
		f, err := os.Create(*resultsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fgbench:", err)
			os.Exit(1)
		}
		resultsFile = f
		resultsEnc = json.NewEncoder(f)
	}
	// One event stream: results arrive in paper order as workers finish;
	// start/finish progress arrives in completion order and goes to
	// stderr, apart from the reports.
	failed := 0
	cfg.OnEvent = func(ev fivegsim.Event) {
		switch {
		case ev.Kind == fivegsim.EventResult:
			res := ev.Result
			if resultsEnc != nil {
				if err := resultsEnc.Encode(res); err != nil {
					fmt.Fprintln(os.Stderr, "fgbench:", err)
					os.Exit(1)
				}
			}
			fmt.Print(res.Report())
			fmt.Printf("  (%.1fs)\n\n", res.Manifest.WallTime.Seconds())
			if res.Err != nil {
				failed++
			}
			if *metrics {
				fmt.Printf("-- metrics %s (events=%d, sim=%s, wall=%s) --\n",
					res.ID, res.Manifest.EventsExecuted, res.Manifest.SimTime,
					res.Manifest.WallTime.Round(time.Millisecond))
				for _, m := range res.Manifest.Metrics {
					fmt.Println(m.String())
				}
				fmt.Println()
			}
		case *progress && ev.Kind == fivegsim.EventStart:
			fmt.Fprintf(os.Stderr, "[%d/%d] %s started\n", ev.Completed, ev.Total, ev.Experiment)
		case *progress && ev.Kind == fivegsim.EventFinish:
			status := "done"
			if ev.Failed {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s %s (elapsed %s, eta %s)\n", ev.Completed, ev.Total,
				ev.Experiment, status, ev.Elapsed.Round(time.Second), ev.ETA.Round(time.Second))
		}
	}
	start := time.Now()
	results, err := fivegsim.RunExperimentsContext(context.Background(), cfg, ids...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fgbench: %v; try -list\n", err)
		os.Exit(1)
	}
	if resultsFile != nil {
		if err := resultsFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "fgbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d results to %s\n", len(results), *resultsPath)
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, tracer); err != nil {
			fmt.Fprintln(os.Stderr, "fgbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d trace events to %s (%d overwritten by ring wrap)\n",
			len(tracer.Events()), *tracePath, tracer.Dropped())
	}
	fmt.Printf("regenerated %d experiments in %.1fs (seed %d, quick=%v, workers=%d)\n",
		len(results), time.Since(start).Seconds(), *seed, *quick, *workers)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "fgbench: %d experiment(s) FAILED\n", failed)
		os.Exit(1)
	}
}

func writeTrace(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return tracer.WriteChromeTrace(f)
}
