package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fivegsim"
	"fivegsim/internal/obs"
	"fivegsim/internal/serve"
)

func record(id string, events int64) fivegsim.Result {
	return fivegsim.Result{ID: id, Title: id + " run", Lines: []string{"line"},
		Manifest: obs.RunManifest{ExperimentID: id, Title: id + " run", Seed: 42, Version: "test",
			EventsExecuted: events, Metrics: []obs.Metric{{Name: "des.events_fired", Kind: "counter", Value: float64(events)}}}}
}

func writeLines(t *testing.T, vs ...any) string {
	t.Helper()
	var b strings.Builder
	for _, v := range vs {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "results.ndjson")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRecordManifestsMixedFile: bare records and fgserve stream events
// interleave in one file; the reader yields exactly the manifests the
// records carry, in file order, and skips progress and status events.
func TestRecordManifestsMixedFile(t *testing.T) {
	t1, f4, x12, pop := record("T1", 0), record("F4", 0), record("X12", 7), record("POP", 0)
	event := func(seq int, kind string) serve.Event {
		return serve.Event{Schema: serve.EventSchemaV1, Seq: seq, Campaign: "c0001", Kind: kind}
	}
	progress := event(1, "progress")
	progress.Progress = &fivegsim.Event{Kind: fivegsim.EventStart, Experiment: "F4", Total: 2}
	res1, res2 := event(2, "result"), event(3, "result")
	res1.Result, res2.Result = &f4, &x12
	status := event(4, "status")
	status.Status = &serve.Status{Schema: serve.StatusSchemaV1, ID: "c0001", State: serve.StateDone, Units: 2, Completed: 2}

	path := writeLines(t, t1, progress, res1, res2, status, pop)
	got, err := recordManifests(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []obs.RunManifest{t1.Manifest, f4.Manifest, x12.Manifest, pop.Manifest}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %d manifests %+v\nwant %+v", len(got), got, want)
	}
}

// TestRecordManifestsMalformedLine: a line that is not JSON fails the
// read with an error naming the file.
func TestRecordManifestsMalformedLine(t *testing.T) {
	path := writeLines(t, record("T1", 0))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{not json\n")
	f.Close()
	got, err := recordManifests(path)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("recordManifests = %d manifests, err %v; want an error naming %s", len(got), err, path)
	}
}

func TestRecordManifestsEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.ndjson")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := recordManifests(path)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty file: %d manifests, err %v; want none", len(got), err)
	}
}
