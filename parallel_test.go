package fivegsim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fivegsim/internal/obs"
)

// sameResults asserts byte-identical reports: every Line and Value of
// every experiment must match between the two runs.
func sameResults(t *testing.T, want, got []Result, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i].ID != got[i].ID {
			t.Fatalf("%s: result %d is %s, want %s (paper order lost)", label, i, got[i].ID, want[i].ID)
		}
		if !reflect.DeepEqual(want[i].Lines, got[i].Lines) {
			t.Fatalf("%s: %s Lines differ between worker counts:\nserial: %q\nparallel: %q",
				label, want[i].ID, want[i].Lines, got[i].Lines)
		}
		if !reflect.DeepEqual(want[i].Values, got[i].Values) {
			t.Fatalf("%s: %s Values differ between worker counts:\nserial: %v\nparallel: %v",
				label, want[i].ID, want[i].Values, got[i].Values)
		}
	}
}

// TestExperimentParallelEquivalence is the determinism-equivalence
// contract at the facade: the same experiments, seeds and Quick mode
// must render identical Lines and Values for Workers=1 and Workers=8.
// The subset spans every parallelized code path that fits a test budget:
// coverage survey shards (T1, T2), hand-off campaign walks (F5), wire
// probe sweeps (F13, F15), the buffer-estimation pair (T3) and the
// population tick shards (X12). Seed 42 is TestQuickCampaignGolden's,
// which covers all experiments at that seed.
func TestExperimentParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed equivalence sweep is not short-mode work")
	}
	ids := []string{"T1", "T2", "F5", "F13", "F15", "T3", "X12"}
	for _, seed := range []int64{1, 7} {
		cfg := Config{Seed: seed, Quick: true, Workers: 1}
		serial, err := RunExperimentsContext(context.Background(), cfg, ids...)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 8
		parallel, err := RunExperimentsContext(context.Background(), cfg, ids...)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, serial, parallel, fmt.Sprintf("seed %d", seed))
	}
}

// campaignDigest runs the whole quick campaign at seed 42 with a
// registry attached and renders two digests, each one line per
// experiment. The report digest holds its ID and the SHA-256 prefixes
// of its Lines and of its Values (sorted keys, Float64bits); wall-time
// fields live only in the manifest, which stays out of it. The metrics
// digest holds its des.events_fired, its netsim.pkt_enqueued summed over
// hops, and a SHA-256 prefix over every manifest metric but the
// wall-clock series (see metricsDigest). It fails every result whose
// title, or whose manifest's title, is not the one Experiments lists.
func campaignDigest(t *testing.T, workers int) (report, metrics []byte) {
	t.Helper()
	cfg := Config{Seed: 42, Quick: true, Workers: workers, Obs: obs.NewRegistry()}
	results, err := RunExperimentsContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	titles := map[string]string{}
	for _, e := range Experiments() {
		titles[e.ID] = e.Title
	}
	var rep, met bytes.Buffer
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.ID, res.Err)
		}
		if want := titles[res.ID]; res.Title != want || res.Manifest.Title != want {
			t.Errorf("%s: result title %q, manifest title %q, want the registered %q",
				res.ID, res.Title, res.Manifest.Title, want)
		}
		lines := sha256.Sum256([]byte(strings.Join(res.Lines, "\n")))
		keys := make([]string, 0, len(res.Values))
		for k := range res.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		vh := sha256.New()
		for _, k := range keys {
			vh.Write([]byte(k))
			vh.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(res.Values[k])))
		}
		fmt.Fprintf(&rep, "%s lines=%x values=%x\n", res.ID, lines[:8], vh.Sum(nil)[:8])
		fmt.Fprintf(&met, "%s %s\n", res.ID, metricsDigest(res.Manifest.Metrics))
	}
	return rep.Bytes(), met.Bytes()
}

// metricsDigest renders one experiment's manifest metrics as its DES
// events fired, its packets enqueued summed over every hop, and a
// SHA-256 prefix over every field of every metric but the wall-clock
// series pop.tick_wall_us and pop.phase_wall_us{…}, whose values follow
// the host.
func metricsDigest(ms []obs.Metric) string {
	var events, enqueued int64
	h := sha256.New()
	for _, m := range ms {
		if m.Name == "pop.tick_wall_us" || strings.HasPrefix(m.Name, "pop.phase_wall_us{") {
			continue
		}
		switch {
		case m.Name == obs.MetricEventsFired:
			events = int64(m.Value)
		case strings.HasPrefix(m.Name, "netsim.pkt_enqueued{"):
			enqueued += int64(m.Value)
		}
		h.Write([]byte(m.Name + " " + m.Kind))
		for _, f := range []float64{m.Value, m.Max, float64(m.Count), m.Sum, m.Min, m.P50, m.P90, m.P95, m.P99} {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)))
		}
	}
	return fmt.Sprintf("events=%d enqueued=%d metrics=%x", events, enqueued, h.Sum(nil)[:8])
}

// TestQuickCampaignGolden pins every experiment's output and telemetry
// at once: the quick campaign at seed 42 on two workers must reproduce
// testdata/campaign_quick_v1.golden (reports) and
// testdata/campaign_quick_metrics_v1.golden (manifest metrics) line for
// line. -update regenerates both goldens from a serial run, so the
// comparison that follows also checks Workers equivalence for every
// experiment. Regenerate only for an intended change of output or of
// telemetry, with
//
//	go test -run QuickCampaignGolden -update .
func TestQuickCampaignGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the whole quick campaign is not short-mode work")
	}
	reportPath := filepath.Join("testdata", "campaign_quick_v1.golden")
	metricsPath := filepath.Join("testdata", "campaign_quick_metrics_v1.golden")
	if *updateGolden {
		report, metrics := campaignDigest(t, 1)
		if err := os.WriteFile(reportPath, report, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsPath, metrics, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	report, metrics := campaignDigest(t, 2)
	compareGolden(t, reportPath, report, "output")
	compareGolden(t, metricsPath, metrics, "telemetry")
}

// compareGolden fails for every line of got that differs from the
// golden file at path; what names the drift in the message.
func compareGolden(t *testing.T, path string, got []byte, what string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run QuickCampaignGolden -update` to create it)", err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(string(got), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("campaign has %d experiments, %s %d:\ngot:\n%s", len(gotLines)-1, path, len(wantLines)-1, got)
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s drifted from %s:\ngot:  %s\nwant: %s", what, path, gotLines[i], wantLines[i])
		}
	}
}

// TestRunAllEquivalenceExhaustive is the acceptance check in full: every
// experiment, seeds {1, 42, 7}, Workers 1 vs 8, byte-identical reports.
// At ~2 minutes per quick campaign it only runs when explicitly requested:
//
//	FIVEGSIM_EXHAUSTIVE=1 go test -run RunAllEquivalence -timeout 30m
func TestRunAllEquivalenceExhaustive(t *testing.T) {
	if os.Getenv("FIVEGSIM_EXHAUSTIVE") == "" {
		t.Skip("set FIVEGSIM_EXHAUSTIVE=1 to run the full campaign equivalence sweep")
	}
	for _, seed := range []int64{1, 42, 7} {
		serial, _ := RunExperimentsContext(context.Background(), Config{Seed: seed, Quick: true, Workers: 1})
		parallel, _ := RunExperimentsContext(context.Background(), Config{Seed: seed, Quick: true, Workers: 8})
		sameResults(t, serial, parallel, "RunAll")
	}
}

// TestExperimentSeedSensitivity guards against a sharding bug that
// would silently decouple results from the seed (e.g. keying substreams
// by shard index alone).
func TestExperimentSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is not short-mode work")
	}
	a, err := RunExperimentsContext(context.Background(), Config{Seed: 1, Quick: true, Workers: 4}, "T1", "F5")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExperimentsContext(context.Background(), Config{Seed: 2, Quick: true, Workers: 4}, "T1", "F5")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if reflect.DeepEqual(a[i].Values, b[i].Values) {
			t.Fatalf("%s: seeds 1 and 2 produced identical values %v", a[i].ID, a[i].Values)
		}
	}
}

// TestRunAllParallelRace exercises the shared-state paths — per-run
// sub-registries merged into one cfg.Obs, a shared Tracer, concurrent
// experiment dispatch — under the race detector's eye. It stays cheap
// (near-instant experiments only) and deliberately does NOT skip in
// short mode: `go test -race -short ./...` must cover it.
func TestRunAllParallelRace(t *testing.T) {
	cfg := Config{Seed: 42, Quick: true, Workers: 8,
		Obs: obs.NewRegistry(), Trace: obs.NewTracer()}
	ids := []string{"F2", "F3", "F4", "F13", "F14", "F15", "F22", "F23"}
	results, err := RunExperimentsContext(context.Background(), cfg, ids...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ids) {
		t.Fatalf("got %d results, want %d", len(results), len(ids))
	}
	for i, res := range results {
		if res.ID != ids[i] {
			t.Fatalf("result %d is %s, want %s", i, res.ID, ids[i])
		}
	}
}

// TestRunExperimentsMergesObsInPaperOrder verifies the telemetry
// plumbing: each result's manifest snapshot covers its own run, and the
// campaign registry ends up with the merged totals.
func TestRunExperimentsMergesObsInPaperOrder(t *testing.T) {
	cfg := Config{Seed: 42, Quick: true, Workers: 4, Obs: obs.NewRegistry()}
	results, err := RunExperimentsContext(context.Background(), cfg, "F10", "F13")
	if err != nil {
		t.Fatal(err)
	}
	var perRun int64
	for _, res := range results {
		for _, m := range res.Manifest.Metrics {
			if m.Kind == "counter" {
				perRun += int64(m.Value)
			}
		}
	}
	var merged int64
	for _, m := range cfg.Obs.Snapshot() {
		if m.Kind == "counter" {
			merged += int64(m.Value)
		}
	}
	if merged == 0 {
		t.Fatal("campaign registry collected nothing")
	}
	if merged != perRun {
		t.Fatalf("merged counter total %d != sum of per-run totals %d", merged, perRun)
	}
}

// TestRunExperimentsUnknownID checks the subset API's error path.
func TestRunExperimentsUnknownID(t *testing.T) {
	if _, err := RunExperimentsContext(context.Background(), QuickConfig(), "F13", "Z9"); err == nil {
		t.Fatal("unknown experiment id must be an error")
	}
}
