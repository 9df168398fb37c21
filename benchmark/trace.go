package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the program; a zero Dur marks an instant.
type span struct {
	Name   string
	Start  time.Time
	Dur    time.Duration
	Tid    int
	Parent string
}

func (p *phase) span(s span) {
	p.mu.Lock()
	p.spans = append(p.spans, s)
	p.mu.Unlock()
}

// writeSpans writes spans as a Chrome trace (chrome://tracing, Perfetto),
// with times relative to origin.
func writeSpans(path string, origin time.Time, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		S    string            `json:"s,omitempty"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		ev := event{Name: s.Name, Ph: "X", Ts: float64(s.Start.Sub(origin)) / 1e3, Dur: float64(s.Dur) / 1e3, Pid: 1, Tid: s.Tid}
		if s.Dur == 0 {
			ev.Ph, ev.S = "i", "t"
		}
		if s.Parent != "" {
			ev.Args = map[string]string{"parent": s.Parent}
		}
		evs = append(evs, ev)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// profiler records the CPU profile and the allocations of one phase.
type profiler struct {
	cpu    *os.File
	allocs map[string]int64
}

// startProfiles starts a CPU profile into dir/cpu.pprof.
func startProfiles(dir string) (*profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	pr := &profiler{cpu: f, allocs: allocsByLayer()}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return pr, nil
}

// stop ends the profiles and charges their samples to p's layers.
func (pr *profiler) stop(p *phase) error {
	pprof.StopCPUProfile()
	if err := pr.cpu.Close(); err != nil {
		return err
	}
	var err error
	if p.profile, err = cpuByLayer(pr.cpu.Name()); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p.allocs = allocsByLayer()
	for l, v := range pr.allocs {
		p.allocs[l] -= v
	}
	return nil
}

// cpuByLayer charges the CPU profile at path to layers, in nanoseconds.
// `go tool pprof -traces` prints each distinct stack, innermost frame
// first, under the time sampled in it:
//
//	-----------+-------------------------------------------------------
//	      10ms   fivegsim/internal/des.(*Sim).siftDown (inline)
//	             fivegsim/internal/des.(*Sim).Step
//	             ...
func cpuByLayer(path string) (map[string]int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	byLayer := map[string]int64{}
	var (
		ns    int64
		stack []string
	)
	flush := func() {
		if stack != nil {
			byLayer[layerOfStack(stack)] += ns
		}
		stack = nil
	}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
		case len(f) == 0 || !strings.HasPrefix(line, " "): // header lines
		case stack == nil:
			if len(f) < 2 {
				return nil, fmt.Errorf("go tool pprof -traces: no function in %q", line)
			}
			if ns, err = parseDuration(f[0]); err != nil {
				return nil, fmt.Errorf("go tool pprof -traces: %q: %w", line, err)
			}
			stack = append(stack, f[1])
		default:
			stack = append(stack, f[0])
		}
	}
	flush()
	if len(byLayer) == 0 {
		return nil, fmt.Errorf("go tool pprof -traces printed no samples")
	}
	return byLayer, nil
}

// parseDuration reads a time as pprof prints it, e.g. 10ms or 1.20s.
func parseDuration(s string) (int64, error) {
	for _, u := range []struct {
		suffix string
		ns     float64
	}{{"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"mins", 60e9}, {"hrs", 3600e9}, {"s", 1e9}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			x, err := strconv.ParseFloat(v, 64)
			return int64(math.Round(x * u.ns)), err
		}
	}
	return 0, fmt.Errorf("no time unit in %q", s)
}

// allocsByLayer returns the bytes allocated so far, by layer. The
// allocation profile samples about one allocation per MemProfileRate
// bytes; each record is scaled back up as pprof scales it.
func allocsByLayer() map[string]int64 {
	runtime.GC() // the allocation profile is published at the end of a GC cycle
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for ok := false; !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	rate := float64(runtime.MemProfileRate)
	byLayer := map[string]int64{}
	for _, r := range recs[:n] {
		if r.AllocObjects == 0 {
			continue
		}
		bytes := float64(r.AllocBytes)
		if rate > 1 {
			bytes /= 1 - math.Exp(-bytes/float64(r.AllocObjects)/rate)
		}
		var stack []string
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var fr runtime.Frame
			fr, more = frames.Next()
			stack = append(stack, fr.Function)
		}
		byLayer[layerOfStack(stack)] += int64(bytes)
	}
	return byLayer
}

// layerOfStack charges a stack of function names, innermost first, to its
// innermost repository frame, so standard-library frames fold into their
// caller; a stack with no repository frame goes to "runtime".
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerOf(fn); ok {
			return l
		}
	}
	return "runtime"
}

// layerOf maps a function name to the layer owning it: the module name
// under fivegsim/internal, "fivegsim" for the root package, "benchmark"
// for this program (package main, or fivegsim/benchmark in its test
// binary), and "other" for the remaining modules. ok is false for code
// outside the repository (the standard library and runtime).
func layerOf(fn string) (layer string, ok bool) {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "fivegsim/benchmark."):
		return "benchmark", true
	case strings.HasPrefix(fn, "fivegsim."):
		return "fivegsim", true
	case strings.HasPrefix(fn, "fivegsim/internal/"):
		mod := strings.TrimPrefix(fn, "fivegsim/internal/")
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		for _, l := range cpuLayers {
			if l == mod {
				return l, true
			}
		}
		return "other", true
	}
	return "", false
}

// writeLayers writes the traced run's artefacts into dir: spans.json and
// layers.json, the per-layer table with each layer's share of CPU.
func writeLayers(dir string, rec record, p *phase, origin time.Time) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(dir, "spans.json"), origin, p.spans); err != nil {
		return err
	}
	var total int64
	for _, v := range p.profile {
		total += v
	}
	share := map[string]float64{}
	for _, l := range cpuLayers {
		share[l] = ratio(float64(p.profile[l]), float64(total))
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload": rec.Workload, "seed": rec.Seed, "host": rec.Host, "cycles": len(p.walls),
		"self_cpu_share": share, "metrics": rec.Metrics,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), b, 0o644)
}
