package fivegsim

import (
	"context"
	"strings"
	"testing"

	"fivegsim/internal/fault"
	"fivegsim/internal/obs"
)

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{
		"T1", "T2", "T3", "T4",
		"F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "F12",
		"F13", "F14", "F15", "F16", "F17", "F18", "F19", "F20", "F21", "F22", "F23",
		"X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10", "X11",
		"X12", "X13", "X14", "X15",
	}
	got := map[string]bool{}
	for _, e := range Experiments() {
		got[e.ID] = true
		if e.Title == "" {
			t.Errorf("%s: empty title", e.ID)
		}
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %s missing from the registry", id)
		}
	}
	if len(got) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(got), len(want))
	}
}

func TestExperimentsOrdered(t *testing.T) {
	exps := Experiments()
	for i := 1; i < len(exps); i++ {
		if orderKey(exps[i].ID) < orderKey(exps[i-1].ID) {
			t.Fatalf("experiments out of order: %s before %s", exps[i-1].ID, exps[i].ID)
		}
	}
	if exps[0].ID != "T1" {
		t.Fatalf("first experiment = %s", exps[0].ID)
	}
}

func TestOrderKeyMalformedIDs(t *testing.T) {
	// Regression: orderKey used to index id[1:] unguarded, so empty and
	// single-character IDs panicked. They must sort after every
	// well-formed ID instead.
	for _, id := range []string{"", "T", "F", "X", "q"} {
		got := orderKey(id) // must not panic
		if got <= orderKey("X99") {
			t.Errorf("orderKey(%q) = %d, want after all well-formed IDs", id, got)
		}
	}
	if !(orderKey("T1") < orderKey("F2") && orderKey("F23") < orderKey("X1")) {
		t.Error("well-formed ordering broken")
	}
}

func TestResultCarriesManifest(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := QuickConfig()
	cfg.Obs = reg
	res, err := RunContext(context.Background(), "T1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Manifest
	if m.ExperimentID != "T1" || m.Seed != 42 || !m.Quick {
		t.Fatalf("manifest header wrong: %+v", m)
	}
	if m.Version == "" || m.WallTime <= 0 {
		t.Fatalf("manifest provenance missing: version=%q wall=%v", m.Version, m.WallTime)
	}
	// T1 is pure computation (no DES), so its snapshot may be empty; the
	// packet-level experiments' snapshots are covered in
	// TestObsMetricsFlowThroughExperiment.
	// Without a registry the manifest still records the headline fields.
	res2, err := RunContext(context.Background(), "T1", QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Manifest.ExperimentID != "T1" || len(res2.Manifest.Metrics) != 0 {
		t.Fatalf("obs-off manifest wrong: %+v", res2.Manifest)
	}
}

func TestObsMetricsFlowThroughExperiment(t *testing.T) {
	// Every packet-level experiment builds its paths through
	// Config.obsPath, so the run's registry and fault plan reach each of
	// them: the des and netsim substrates report, and a fault at t=0
	// opens its window on the experiment's paths. F10 wires its own path;
	// T3, F16 and F17 hand theirs to internal/wire and internal/web.
	for _, id := range []string{"F10", "T3", "F16", "F17"} {
		t.Run(id, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := QuickConfig()
			cfg.Obs = reg
			cfg.Faults = fault.Outage("o", 0, 1)
			res, err := RunContext(context.Background(), id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if reg.Counter("des.events_fired").Value() == 0 {
				t.Error("des.events_fired not collected")
			}
			if res.Manifest.EventsExecuted == 0 || res.Manifest.SimTime == 0 || len(res.Manifest.Metrics) == 0 {
				t.Errorf("manifest snapshot incomplete: events=%d sim=%v metrics=%d",
					res.Manifest.EventsExecuted, res.Manifest.SimTime, len(res.Manifest.Metrics))
			}
			if reg.Counter("netsim.pkt_delivered{hop=5G-RAN}").Value() == 0 {
				t.Error("netsim.pkt_delivered{hop=5G-RAN} not collected")
			}
			occupancy := false
			for _, m := range reg.Snapshot() {
				occupancy = occupancy || m.Name == "netsim.occupancy_bytes{hop=5G-RAN}" && m.Count > 0
			}
			if !occupancy {
				t.Error("occupancy histogram not collected")
			}
			if reg.Counter("fault.windows{kind=link-outage}").Value() == 0 {
				t.Error("the fault plan never reached the experiment's paths")
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := RunContext(context.Background(), "F99", QuickConfig()); err == nil {
		t.Fatal("want error for unknown experiment")
	}
}

func TestQuickCheapExperiments(t *testing.T) {
	// The fast experiments run end-to-end through the facade and report
	// plausible headline values.
	cfg := QuickConfig()
	t1, err := RunContext(context.Background(), "T1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Values["cells5G"] != 13 || t1.Values["cells4G"] != 34 {
		t.Fatalf("T1 cell counts wrong: %+v", t1.Values)
	}
	if t1.Values["rsrp5G"] > -75 || t1.Values["rsrp5G"] < -95 {
		t.Fatalf("T1 5G RSRP = %.1f", t1.Values["rsrp5G"])
	}
	f2, _ := RunContext(context.Background(), "F2", cfg)
	if f2.Values["radius5G"] >= f2.Values["radius4G"] {
		t.Fatal("F2: 5G radius must be below 4G radius")
	}
	f22, _ := RunContext(context.Background(), "F22", cfg)
	if f22.Values["ratioAt50s"] < 2.2 {
		t.Fatalf("F22 ratio = %.1f", f22.Values["ratioAt50s"])
	}
	f23, _ := RunContext(context.Background(), "F23", cfg)
	if f23.Values["ratio"] < 1.2 || f23.Values["nrTailS"] < 1.6*f23.Values["lteTailS"] {
		t.Fatalf("F23 values implausible: %+v", f23.Values)
	}
	t4, _ := RunContext(context.Background(), "T4", cfg)
	if t4.Values["File/LTE"] <= t4.Values["File/NR NSA"] {
		t.Fatal("T4: file transfer must favor 5G")
	}
	if t4.Values["Web/LTE"] >= t4.Values["Web/NR NSA"] {
		t.Fatal("T4: web must favor 4G")
	}
}

func TestReportFormatting(t *testing.T) {
	r := Result{ID: "T1", Title: "x", Lines: []string{"a", "b"}}
	rep := r.Report()
	if !strings.Contains(rep, "== T1: x ==") || !strings.Contains(rep, "  a\n  b\n") {
		t.Fatalf("report = %q", rep)
	}
}
