package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"fivegsim"
)

var update = flag.Bool("update", false, "regenerate testdata/digests.json (runs every workload at every pool seed; several minutes)")

// TestMain lets the test binary serve as its own set-up probe, as the
// benchmark binary does, and builds nullproc next to it, where set-up
// timing looks for it.
func TestMain(m *testing.M) {
	if spec := os.Getenv(probeEnv); spec != "" {
		if err := probe(spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Exit(0)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	build := exec.Command("go", "build", "-o", filepath.Join(filepath.Dir(exe), "nullproc"), "./nullproc")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building nullproc: %v\n%s", err, out)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSON checks BENCHMARK.json against the limits it must
// meet and against the metrics this program emits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(b))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []def    `json:"workloads"`
		EndToEnd   []def    `json:"end_to_end"`
		PerLayer   []def    `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	if len(spec.Command) == 0 || len(spec.Command) > 32 {
		t.Errorf("command has %d strings", len(spec.Command))
	}
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	if len(spec.Paths) < 1 || len(spec.Paths) > 16 {
		t.Errorf("%d paths", len(spec.Paths))
	}
	for _, p := range spec.Paths {
		if !pathRE.MatchString(p) || p[0] == '/' || strings.Contains("/"+p+"/", "/../") {
			t.Errorf("bad path %q", p)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(spec.Workloads))
	}
	var names []string
	for _, w := range spec.Workloads {
		checkName(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}

	checkDefs := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program emits %d", kind, len(got), len(want))
			return
		}
		for i, d := range got {
			checkName(d.Name)
			if d.Name != want[i].name || d.Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program emits %s (%s)", kind, i, d.Name, d.Unit, want[i].name, want[i].unit)
			}
			if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s: bad unit or better in %+v", d.Name, d)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound <= 0 || *d.Bound > 0.25)) {
				t.Errorf("%s: bound must be set in (0, 0.25] for end-to-end metrics only", d.Name)
			}
		}
	}
	checkDefs("end_to_end", spec.EndToEnd, endToEndDefs, true)
	checkDefs("per_layer", spec.PerLayer, perLayerDefs(), false)
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	for _, d := range spec.EndToEnd {
		if d.Name == "setup_s" {
			for _, o := range spec.EndToEnd {
				if *o.Bound > *d.Bound {
					t.Errorf("setup_s bound %g is not the largest (%s has %g)", *d.Bound, o.Name, *o.Bound)
				}
			}
		}
	}
}

// TestSmoke runs every batch workload trimmed to one unit, and the service
// workload for no time, which is one campaign per client. It checks every
// end-to-end metric is emitted, with its unit, and nothing failed; then
// one traced udp unit, which must charge CPU to the DES layer.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	svc, err := newWorkload("service", 42)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := map[string]workload{
		"tcp":     &batch{ids: []string{"F8"}, quick: true, workers: 1, seeds: poolSeeds[:1]},
		"udp":     &batch{ids: []string{"F11"}, quick: true, workers: 1, seeds: poolSeeds[:1]},
		"campus":  &batch{ids: []string{"T1"}, quick: false, workers: 2, seeds: poolSeeds[:1]},
		"service": svc,
	}
	for _, name := range workloadNames {
		rec, err := execute(ctx, name, trimmed[name], 42, 0, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRecord(t, rec, endToEndDefs)
	}
	udp := &batch{ids: []string{"F11"}, quick: true, workers: 1, seeds: poolSeeds[:2]}
	rec, err := execute(ctx, "udp", udp, 42, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	checkRecord(t, rec, perLayerDefs())
	if v := rec.Metrics["des.self_cpu_s"].Value; v <= 0 {
		t.Errorf("traced udp: des.self_cpu_s = %g, want > 0", v)
	}
}

func checkRecord(t *testing.T, rec record, defs []metricDef) {
	t.Helper()
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d", rec.Workload, rec.Correct, rec.Failed, rec.Attempted)
	}
	if len(rec.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", rec.Workload, len(rec.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rec.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", rec.Workload, d.name, m, d.unit)
		}
		if !rec.Trace && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %g, want > 0", rec.Workload, d.name, m.Value)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// which is how spreads are judged outside this program.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// digestSets lists every unit the workloads run, by the configuration
// that runs it.
var digestSets = []struct {
	ids     []string
	quick   bool
	workers int
}{{tcpIDs, true, 1}, {udpIDs, true, 1}, {campusIDs, false, 2}, {serviceIDs, true, 1}}

// TestDigests checks testdata/digests.json covers every unit at every pool
// seed and still matches the library on the cheap service units at seeds
// 42 and 7. With -update it recomputes the whole file:
//
//	go test -run TestDigests -update -timeout 30m .
func TestDigests(t *testing.T) {
	if *update {
		out := map[string]string{}
		for _, u := range digestSets {
			for _, seed := range poolSeeds {
				res, err := fivegsim.RunExperimentsContext(context.Background(),
					fivegsim.Config{Seed: seed, Quick: u.quick, Workers: u.workers}, u.ids...)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range res {
					if r.Err != nil {
						t.Fatalf("%s@%d: %v", r.ID, seed, r.Err)
					}
					out[digestKey(r.ID, seed, u.quick)] = digest(r)
				}
			}
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/digests.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		digests = out
	}
	for _, u := range digestSets {
		for _, seed := range poolSeeds {
			for _, id := range u.ids {
				if _, ok := digests[digestKey(id, seed, u.quick)]; !ok {
					t.Errorf("no digest for %s", digestKey(id, seed, u.quick))
				}
			}
		}
	}
	for _, seed := range []int64{42, 7} {
		res, err := fivegsim.RunExperimentsContext(context.Background(),
			fivegsim.Config{Seed: seed, Quick: true, Workers: 1}, serviceIDs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if key := digestKey(r.ID, seed, true); digest(r) != digests[key] {
				t.Errorf("%s: digest %s, committed %s", key, digest(r), digests[key])
			}
		}
	}
}
