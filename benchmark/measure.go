package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fivegsim/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics of an untraced run, in BENCHMARK.json
// order. Allocation describes one cycle. Cycle times do not repeat
// within a tenth on a shared host, so they are per-layer metrics.
var endToEndDefs = []metricDef{
	{"alloc_mb", "MB"},
	{"mallocs_m", "million"},
	{"setup_s", "s"},
}

// Layers are the repository's modules. CPU samples and allocations are
// charged to the innermost frame of repository code; see layerOf.
var (
	cpuLayers = []string{"des", "netsim", "transport", "cc", "handoff", "radio", "deploy", "geom",
		"coverage", "pop", "energy", "rng", "video", "serve", "obs", "fivegsim", "runtime", "benchmark", "other"}
	allocLayers = []string{"des", "netsim", "transport", "cc", "deploy", "pop", "energy", "serve", "obs", "fivegsim"}
)

// perLayerDefs are the metrics of a traced run, in BENCHMARK.json order.
// Every workload reports all of them; a layer a workload does not
// exercise reads 0. Counts are per cycle.
func perLayerDefs() []metricDef {
	d := []metricDef{{"wall_s", "s"}, {"cpu_s", "s"}}
	for _, l := range cpuLayers {
		d = append(d, metricDef{l + ".self_cpu_s", "s"})
	}
	for _, l := range allocLayers {
		d = append(d, metricDef{l + ".alloc_mb", "MB"})
	}
	d = append(d,
		metricDef{"des.events_fired", "count"}, metricDef{"des.events_canceled", "count"},
		metricDef{"des.cancel_ratio", "ratio"}, metricDef{"des.queue_depth_max", "count"},
		metricDef{"des.ns_per_event", "ns"},
		metricDef{"netsim.pkt_enqueued", "count"}, metricDef{"netsim.pkt_delivered", "count"},
		metricDef{"netsim.delivery_ratio", "ratio"}, metricDef{"netsim.harq_retx", "count"},
		metricDef{"netsim.ns_per_pkt", "ns"},
		metricDef{"cc.acks", "count"}, metricDef{"cc.loss_events", "count"}, metricDef{"cc.rto_events", "count"},
		metricDef{"transport.ns_per_ack", "ns"},
		metricDef{"pop.ticks", "count"}, metricDef{"pop.ue_attached", "count"},
		metricDef{"pop.prb_grant_ratio", "ratio"}, metricDef{"pop.tick_wall_ms_mean", "ms"},
		metricDef{"serve.campaigns", "count"}, metricDef{"serve.units_per_s", "1/s"},
		metricDef{"serve.pool_busy_frac", "ratio"}, metricDef{"serve.submit_p50_ms", "ms"},
		metricDef{"serve.campaign_p98_s", "s"}, metricDef{"serve.first_result_p50_s", "s"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.peak_rss_mb", "MB"}, metricDef{"runtime.retained_mb", "MB"},
	)
	for _, ids := range [][]string{tcpIDs, udpIDs, campusIDs, serviceIDs} {
		for _, id := range ids {
			d = append(d, metricDef{"unit." + id + ".wall_s", "s"})
		}
	}
	return append(d, metricDef{"host.calib_ms", "ms"}, metricDef{"trace.overhead_frac", "ratio"})
}

// measure runs one phase of w until the deadline and records the
// process-wide CPU, allocation and GC totals over it.
func measure(ctx context.Context, w workload, p *phase, until time.Time) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	w.run(ctx, p, until)
	p.window = time.Since(t0)
	p.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.gcs = m1.NumGC - m0.NumGC
	p.pause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// retainedMB is the live heap after a forced collection.
func retainedMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// endToEnd computes the untraced metrics of phase p.
func endToEnd(p *phase, setup float64) map[string]float64 {
	n := float64(max(len(p.walls), 1))
	return map[string]float64{
		"alloc_mb":  float64(p.alloc) / 1e6 / n,
		"mallocs_m": float64(p.mallocs) / 1e6 / n,
		"setup_s":   setup,
	}
}

// perLayer computes the traced metrics of phase p; base is the untraced
// phase that ran first in the same process, and gives the cycle times.
// Metrics a workload does not produce are left out, and report as 0.
func perLayer(p, base *phase, calib, retained float64) map[string]float64 {
	n := float64(max(len(p.walls), 1))
	m := map[string]float64{
		"wall_s": median(base.walls),
		"cpu_s":  base.cpu.Seconds() / float64(max(len(base.walls), 1)),
	}
	for _, l := range cpuLayers {
		m[l+".self_cpu_s"] = float64(p.profile[l]) / 1e9 / n
	}
	for _, l := range allocLayers {
		m[l+".alloc_mb"] = float64(p.allocs[l]) / 1e6 / n
	}
	c := counters(p.reg.Snapshot(), p.before)
	perCycle := func(name string) float64 { return c[name] / n }
	m["des.events_fired"] = perCycle("des.events_fired")
	m["des.events_canceled"] = perCycle("des.events_canceled")
	m["des.cancel_ratio"] = ratio(c["des.events_canceled"], c["des.events_scheduled"])
	m["des.queue_depth_max"] = c["des.queue_depth.max"]
	m["des.ns_per_event"] = ratio(float64(p.profile["des"]), c["des.events_fired"])
	m["netsim.pkt_enqueued"] = perCycle("netsim.pkt_enqueued")
	m["netsim.pkt_delivered"] = perCycle("netsim.pkt_delivered")
	m["netsim.delivery_ratio"] = ratio(c["netsim.pkt_delivered"], c["netsim.pkt_enqueued"])
	m["netsim.harq_retx"] = perCycle("netsim.harq_retx")
	m["netsim.ns_per_pkt"] = ratio(float64(p.profile["netsim"]), c["netsim.pkt_enqueued"])
	m["cc.acks"] = perCycle("cc.acks")
	m["cc.loss_events"] = perCycle("cc.loss_events")
	m["cc.rto_events"] = perCycle("cc.rto_events")
	m["transport.ns_per_ack"] = ratio(float64(p.profile["transport"]), c["cc.acks"])
	m["pop.ticks"] = perCycle("pop.ticks")
	m["pop.ue_attached"] = perCycle("pop.ue_attached")
	m["pop.prb_grant_ratio"] = ratio(c["pop.prb_granted"], c["pop.prb_demand"])
	m["pop.tick_wall_ms_mean"] = ratio(c["pop.tick_wall_us.sum"], c["pop.tick_wall_us.count"]) / 1e3
	if len(p.submits) > 0 {
		var busy time.Duration
		for _, u := range p.units {
			busy += u.wall
		}
		m["serve.campaigns"] = float64(len(p.walls))
		m["serve.units_per_s"] = float64(len(p.units)) / p.window.Seconds()
		m["serve.pool_busy_frac"] = busy.Seconds() / (servicePool * p.window.Seconds())
		m["serve.submit_p50_ms"] = median(p.submits) * 1e3
		m["serve.campaign_p98_s"] = quantile(p.walls, 0.98)
		m["serve.first_result_p50_s"] = median(p.firsts)
	}
	m["runtime.gc_cycles"] = float64(p.gcs) / n
	m["runtime.gc_pause_ms"] = float64(p.pause) / 1e6 / n
	m["runtime.peak_rss_mb"] = peakRSSMB()
	m["runtime.retained_mb"] = retained
	byID := map[string][]float64{}
	for _, u := range p.units {
		byID[u.id] = append(byID[u.id], u.wall.Seconds())
	}
	for id, walls := range byID {
		m["unit."+id+".wall_s"] = median(walls)
	}
	m["host.calib_ms"] = calib
	m["trace.overhead_frac"] = ratio(median(p.walls), median(base.walls)) - 1
	return m
}

// counters sums a registry snapshot by metric name, labels dropped, less
// the snapshot taken before the phase. Gauges contribute their high-water
// mark as "<name>.max", histograms their "<name>.sum" and "<name>.count".
func counters(now, before []obs.Metric) map[string]float64 {
	c := map[string]float64{}
	add := func(ms []obs.Metric, sign float64) {
		for _, m := range ms {
			name, _, _ := strings.Cut(m.Name, "{")
			switch m.Kind {
			case "counter":
				c[name] += sign * m.Value
			case "gauge":
				c[name+".max"] = math.Max(c[name+".max"], m.Max)
			case "histogram":
				c[name+".sum"] += sign * m.Sum
				c[name+".count"] += sign * float64(m.Count)
			}
		}
	}
	add(now, 1)
	add(before, -1)
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		m := median(s)
		return m, m
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// host is the fingerprint every run record carries, so drift of the
// machine can be told apart from drift of the code.
type host struct {
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CalibMS    float64 `json:"calib_ms"`
}

func fingerprint() host {
	h := host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: "unknown", NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CalibMS: calibrate()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// calibIters sizes the calibration loop to about 50 ms on a 2020s x86 core.
const calibIters = 26_000_000

var calibSink uint64

// calibrate times a fixed pure-Go loop three times and returns the
// median in milliseconds.
func calibrate() float64 {
	ms := make([]float64, 3)
	for i := range ms {
		t := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < calibIters; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		ms[i] = float64(time.Since(t)) / 1e6
	}
	return median(ms)
}

// probeEnv, when set to "<workload>/<seed>", makes the binary a set-up
// probe: it does everything a run does before its first cycle and exits.
const probeEnv = "FIVEGSIM_BENCH_SETUP_PROBE"

// setupProbes is how many probes a run times, half before its timed part
// and half after, so that setup_s, their median, sees the host at both
// ends of the run.
const setupProbes = 32

// nullStart is what setup_s takes the start of nullproc, a Go program
// that does nothing, to cost: about its time on a 2020s x86 core.
const nullStart = time.Millisecond

// setupTimes starts the benchmark binary as a set-up probe n times, each
// right after a start of nullproc, which lies next to the benchmark
// binary. It returns each probe's time in units of nullproc's time,
// counted as nullStart, in seconds. How fast the host starts a process
// drifts by a quarter within minutes; the quotient moves by a twentieth.
func setupTimes(ctx context.Context, name string, seed int64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	null := filepath.Join(filepath.Dir(exe), "nullproc")
	timed := func(cmd *exec.Cmd) (time.Duration, error) {
		cmd.Stderr = os.Stderr
		t := time.Now()
		err := cmd.Run()
		return time.Since(t), err
	}
	samples := make([]float64, n)
	for i := range samples {
		base, err := timed(exec.CommandContext(ctx, null))
		if err != nil {
			return nil, fmt.Errorf("nullproc: %w", err)
		}
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s/%d", probeEnv, name, seed))
		d, err := timed(cmd)
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		samples[i] = float64(d) / float64(base) * nullStart.Seconds()
	}
	return samples, nil
}

// probe is the body of a set-up probe process: build the workload, start
// it, and for the service submit the first campaign and wait for its 202.
func probe(spec string) error {
	name, seedText, _ := strings.Cut(spec, "/")
	seed, err := strconv.ParseInt(seedText, 10, 64)
	if err != nil {
		return fmt.Errorf("%s=%q: %w", probeEnv, spec, err)
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	if err := w.start(); err != nil {
		return err
	}
	if s, ok := w.(*service); ok {
		_, err = s.submit(context.Background(), 0)
	}
	return err
}
