package fivegsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fivegsim/internal/fault"
	"fivegsim/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// faultPlanEmpty fails fault.Plan.Validate (a plan needs ≥1 fault).
var faultPlanEmpty = fault.Plan{Name: "empty"}

// goldenResult is a fully-populated Result with every timestamp and
// version pinned, so its encoding is byte-stable across hosts.
func goldenResult() Result {
	return Result{
		ID:    "F7",
		Title: "UDP baselines and TCP bandwidth utilization",
		Lines: []string{
			"UDP DL  905.4 Mbps (paper 900)",
			"TCP DL  674.6 Mbps (paper 670)",
		},
		Values: map[string]float64{
			"udp_dl_mbps": 905.4,
			"tcp_dl_mbps": 674.6,
		},
		Err: ResultError("fivegsim: experiment F7 panicked: synthetic crash"),
		Manifest: obs.RunManifest{
			ExperimentID:   "F7",
			Title:          "UDP baselines and TCP bandwidth utilization",
			Seed:           42,
			Quick:          true,
			Version:        "v1.0.0-test",
			StartedAt:      time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC),
			WallTime:       1500 * time.Millisecond,
			SimTime:        8 * time.Second,
			EventsExecuted: 123456,
			Metrics: []obs.Metric{
				{Name: "des.events_fired", Kind: "counter", Value: 123456},
				{Name: "netsim.queue_depth", Kind: "gauge", Value: 3, Max: 17},
			},
		},
	}
}

// TestResultJSONGolden pins the v1 wire shape: any field rename,
// retype or re-nesting shows up as a golden diff and requires a schema
// bump, not a silent break of fgserve/fgbench consumers.
func TestResultJSONGolden(t *testing.T) {
	data, err := json.MarshalIndent(goldenResult(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "result_v1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run ResultJSONGolden -update` to create it)", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("Result v1 encoding drifted from %s:\ngot:\n%s\nwant:\n%s", path, data, want)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	orig := goldenResult()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != orig.ID || back.Title != orig.Title {
		t.Fatalf("round trip lost identity: %+v", back)
	}
	if !reflect.DeepEqual(back.Lines, orig.Lines) || !reflect.DeepEqual(back.Values, orig.Values) {
		t.Fatalf("round trip lost payload: %+v", back)
	}
	if back.Err == nil || back.Err.Error() != orig.Err.Error() {
		t.Fatalf("round trip lost the flattened error: %v", back.Err)
	}
	if !reflect.DeepEqual(back.Manifest, orig.Manifest) {
		t.Fatalf("round trip lost the manifest:\ngot  %+v\nwant %+v", back.Manifest, orig.Manifest)
	}
}

func TestResultJSONSchemaGate(t *testing.T) {
	var r Result
	err := json.Unmarshal([]byte(`{"schema":"fivegsim.result/v9","id":"T1"}`), &r)
	if err == nil {
		t.Fatal("a v9 document decoded without error")
	}
	// An error-free result omits both error and manifest.
	data, err := json.Marshal(Result{ID: "T1", Title: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"error"`)) || bytes.Contains(data, []byte(`"manifest"`)) {
		t.Fatalf("clean result leaks empty fields: %s", data)
	}
	if !bytes.Contains(data, []byte(`"schema":"fivegsim.result/v1"`)) {
		t.Fatalf("schema field missing: %s", data)
	}
}

// FuzzResultJSON holds the result/v1 decoder to a round trip: whatever
// bytes decode as a Result must encode, decode and encode again to the
// same bytes, and nothing may panic. The seed corpus under
// testdata/fuzz/FuzzResultJSON holds the golden result, a bare record,
// an unknown schema and a manifest with no ID or version.
func FuzzResultJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Result
		if json.Unmarshal(data, &r) != nil {
			return
		}
		first, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("decoded %q but cannot encode it: %v", data, err)
		}
		var back Result
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("cannot decode its own encoding %s: %v", first, err)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("cannot re-encode %s: %v", first, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip drifted:\n%s\n%s", first, second)
		}
	})
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"negative workers", Config{Workers: -2}, "Workers"},
		{"negative population", Config{Population: -1}, "Population"},
		{"empty fault plan", Config{Faults: &faultPlanEmpty}, "Faults"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("%s: error %v does not match ErrInvalidConfig", tc.name, err)
		}
		var ice *InvalidConfigError
		if !errors.As(err, &ice) || ice.Field != tc.field {
			t.Fatalf("%s: error %v does not name field %s", tc.name, err, tc.field)
		}
	}
	// The fault-plan failure keeps the underlying sentinel on the chain.
	if err := (Config{Faults: &faultPlanEmpty}).Validate(); !errors.Is(err, fault.ErrInvalidPlan) {
		t.Fatalf("fault-plan failure %v lost fault.ErrInvalidPlan", err)
	}
}

// TestRunRejectsInvalidConfig: every entry point fails fast on the same
// typed error, before any experiment runs.
func TestRunRejectsInvalidConfig(t *testing.T) {
	bad := Config{Workers: -1}
	if _, err := RunContext(context.Background(), "T1", bad); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("RunContext returned %v", err)
	}
	if _, err := RunExperimentsContext(context.Background(), bad, "T1"); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("RunExperimentsContext returned %v", err)
	}
	if res, _ := RunExperimentsContext(context.Background(), bad); res != nil {
		t.Fatalf("a full campaign with an invalid config returned %d results", len(res))
	}
}

func TestValidateExperiments(t *testing.T) {
	if err := ValidateExperiments("T1", "F7", "X15"); err != nil {
		t.Fatal(err)
	}
	err := ValidateExperiments("T1", "NOPE")
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("error %v does not match ErrUnknownExperiment", err)
	}
	var ue *UnknownExperimentError
	if !errors.As(err, &ue) || ue.ID != "NOPE" {
		t.Fatalf("error %v does not carry the offending id", err)
	}
}
