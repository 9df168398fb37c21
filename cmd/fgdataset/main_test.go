package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/dataset_v1.golden")

// TestDatasetGolden pins every file of the seed-42 bundle, manifest.json
// included, by its SHA-256: one line per file, in name order. The UDP
// loss trace alone holds 1,185 runs, so a change to how loss runs reach
// fgdataset shows here. Regenerate only for an intended change of the
// bundle, with
//
//	go test ./cmd/fgdataset -run TestDatasetGolden -update
func TestDatasetGolden(t *testing.T) {
	golden := filepath.Join("testdata", "dataset_v1.golden")
	dir := t.TempDir()
	if err := run(dir, 42, 2000, 20); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256(data), e.Name())
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("the bundle differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
