// Command benchmark is fivegsim's end-to-end benchmark. It runs one named
// workload through the public entry points — fivegsim.RunExperimentsContext
// and the campaign service's HTTP handler — for a fixed time, checks
// every result against committed digests, and prints every end-to-end
// metric by name with its unit. A traced run (-trace 1) prints the
// per-layer metrics instead and writes cpu.pprof, spans.json and
// layers.json under .bench_build/trace/<workload>/. Run it from the
// repository root:
//
//	bash benchmark/run.sh -workload tcp -seed 42 -seconds 20 -trace 0 [-json runs.jsonl]
//	bash benchmark/run.sh -workload tcp,udp,campus,service   (one child process each)
//	bash benchmark/run.sh agree A.jsonl B.jsonl
//
// The last line a single-workload run prints is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -json stores it and agree reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Host     host   `json:"host"`
	result
}

func main() {
	if spec := os.Getenv(probeEnv); spec != "" {
		if err := probe(spec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "agree" {
		os.Exit(agreeMain(os.Args[2:]))
	}
	workloadFlag := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+"; a comma-separated list runs each in its own process")
	seed := flag.Int64("seed", 42, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run: report per-layer metrics and write spans.json and layers.json")
	jsonOut := flag.String("json", "", "append the run record to this JSON-lines file")
	flag.Parse()
	if *workloadFlag == "" || flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if names := strings.Split(*workloadFlag, ","); len(names) > 1 {
		os.Exit(combined(ctx, names, *seed, *seconds, *trace, *jsonOut))
	}
	w, err := newWorkload(*workloadFlag, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	rec, err := execute(ctx, *workloadFlag, w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	printTable(rec)
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// execute performs one run of workload w: half the set-up probes, cycles
// until the time is up, then the other half. A traced run first
// measures untraced for a quarter of the time, which gives the cycle
// times and the tracing overhead.
func execute(ctx context.Context, name string, w workload, seed int64, seconds int, traced bool) (record, error) {
	rec := record{Workload: name, Seed: seed, Seconds: seconds, Trace: traced}
	setup, err := setupTimes(ctx, name, seed, setupProbes/2)
	if err != nil {
		return rec, err
	}
	if err := w.start(); err != nil {
		return rec, err
	}
	rec.Host = fingerprint()
	budget := time.Duration(seconds) * time.Second
	traceDir := filepath.Join(".bench_build", "trace", name)
	t0 := time.Now()
	p := newPhase(false)
	var base *phase
	if traced {
		base = p
		measure(ctx, w, base, t0.Add(budget/4))
		p = newPhase(true)
		pr, err := startProfiles(traceDir)
		if err != nil {
			return rec, err
		}
		measure(ctx, w, p, t0.Add(budget))
		if err := pr.stop(p); err != nil {
			return rec, err
		}
	} else {
		measure(ctx, w, p, t0.Add(budget))
	}
	elapsed := time.Since(t0)
	retained := retainedMB()
	w.finish(ctx, p)
	if err := ctx.Err(); err != nil {
		return rec, err
	}
	later, err := setupTimes(ctx, name, seed, setupProbes-len(setup))
	if err != nil {
		return rec, err
	}
	setup = append(setup, later...)

	rec.Correct = len(p.walls) > 0
	for _, q := range []*phase{base, p} {
		if q == nil {
			continue
		}
		rec.Attempted += q.attempted
		rec.Failed += q.failed
		rec.Correct = rec.Correct && len(q.problems) == 0
		for _, s := range q.problems {
			fmt.Fprintln(os.Stderr, "FAIL", s)
		}
	}
	values, defs := endToEnd(p, median(setup)), endToEndDefs
	if traced {
		values, defs = perLayer(p, base, rec.Host.CalibMS, retained), perLayerDefs()
	}
	rec.Metrics = map[string]metric{}
	for _, d := range defs {
		rec.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	if traced {
		p.span(span{Name: fmt.Sprintf("run %s seed=%d", name, seed), Start: t0, Dur: elapsed})
		if err := writeLayers(traceDir, rec, p, t0); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printTable(rec record) {
	h := rec.Host
	fmt.Printf("workload %s  seed %d  seconds %d  trace %v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Printf("host %s/%s  %q  nproc %d  GOMAXPROCS %d  %s  calib %.1f ms\n",
		h.GOOS, h.GOARCH, h.CPU, h.NumCPU, h.GOMAXPROCS, h.Go, h.CalibMS)
	defs := endToEndDefs
	if rec.Trace {
		defs = perLayerDefs()
	}
	var cpu float64
	for _, l := range cpuLayers {
		cpu += rec.Metrics[l+".self_cpu_s"].Value
	}
	for _, d := range defs {
		v := rec.Metrics[d.name].Value
		if strings.HasSuffix(d.name, ".self_cpu_s") {
			fmt.Printf("  %-28s %14.6g %-7s %5.1f%% of CPU samples\n", d.name, v, d.unit, 100*ratio(v, cpu))
			continue
		}
		fmt.Printf("  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("  %-28s %14d of %d units (fail_frac %.4g)\n", "failed", rec.Failed, rec.Attempted,
		ratio(float64(rec.Failed), float64(rec.Attempted)))
}

// combined runs each named workload in its own child process with the
// same settings and prints one table with a column per workload.
func combined(ctx context.Context, names []string, seed int64, seconds, trace int, jsonOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var results []result
	code := 0
	for _, name := range names {
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-json", jsonOut)
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		runErr := cmd.Run()
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s: %v (%v)\n", name, runErr, err)
			return 2
		}
		if runErr != nil || !res.Correct {
			code = 1
		}
		results = append(results, res)
	}
	fmt.Printf("%-28s", "metric")
	for _, n := range names {
		fmt.Printf(" %14s", n)
	}
	fmt.Println()
	defs := endToEndDefs
	if trace == 1 {
		defs = perLayerDefs()
	}
	for _, d := range defs {
		fmt.Printf("%-28s", d.name+" ("+d.unit+")")
		for _, r := range results {
			fmt.Printf(" %14.6g", r.Metrics[d.name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-28s", "fail_frac")
	for _, r := range results {
		fmt.Printf(" %14s", strconv.Itoa(r.Failed)+"/"+strconv.Itoa(r.Attempted))
	}
	fmt.Println()
	return code
}
