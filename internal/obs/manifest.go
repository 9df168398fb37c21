package obs

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// RunManifest is the provenance record attached to every experiment
// result: everything needed to reproduce the run and to compare two
// runs metric-by-metric.
type RunManifest struct {
	ExperimentID string    `json:"experiment_id"`
	Title        string    `json:"title,omitempty"`
	Seed         int64     `json:"seed"`
	Quick        bool      `json:"quick"`
	Version      string    `json:"version"`
	StartedAt    time.Time `json:"started_at"`
	// WallTime is the real time the run took; SimTime the longest
	// simulated clock any scheduler in the run reached.
	WallTime time.Duration `json:"wall_ns"`
	SimTime  time.Duration `json:"sim_ns"`
	// EventsExecuted is the total DES events fired across the run
	// (0 when the run had no registry attached).
	EventsExecuted int64 `json:"events_executed"`
	// Metrics is the registry snapshot at the end of the run.
	Metrics []Metric `json:"metrics,omitempty"`
}

// Metric names the manifest reads back out of the registry snapshot.
const (
	MetricEventsFired = "des.events_fired"
	MetricSimTime     = "des.sim_time_ns"
)

// NewManifest assembles the manifest for one finished run. reg may be
// nil (headline-only manifest).
func NewManifest(id, title string, seed int64, quick bool, started time.Time, wall time.Duration, reg *Registry) RunManifest {
	m := RunManifest{
		ExperimentID: id,
		Title:        title,
		Seed:         seed,
		Quick:        quick,
		Version:      Version(),
		StartedAt:    started,
		WallTime:     wall,
		Metrics:      reg.Snapshot(),
	}
	for _, met := range m.Metrics {
		switch met.Name {
		case MetricEventsFired:
			m.EventsExecuted = int64(met.Value)
		case MetricSimTime:
			m.SimTime = time.Duration(met.Max)
		}
	}
	return m
}

// Version returns a git-describe-style identifier for the running
// binary, derived from Go's embedded build info: module version when
// tagged, otherwise "devel+<revision12>[-dirty]". Concurrent first calls
// (parallel experiments finishing together) compute it once.
func Version() string { return version() }

var version = sync.OnceValue(func() string {
	v := "devel"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		v = bi.Main.Version
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		v += "+" + rev + dirty
	}
	return v
})

// String renders the manifest header and metric snapshot as text.
func (m RunManifest) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run %s (%s)\n", m.ExperimentID, m.Title)
	fmt.Fprintf(&b, "  seed=%d quick=%v version=%s\n", m.Seed, m.Quick, m.Version)
	fmt.Fprintf(&b, "  started=%s wall=%s sim=%s events=%d\n",
		m.StartedAt.Format(time.RFC3339), m.WallTime.Round(time.Millisecond), m.SimTime, m.EventsExecuted)
	for _, met := range m.Metrics {
		fmt.Fprintf(&b, "  %s\n", met.String())
	}
	return b.String()
}

// DiffManifests renders a metric-by-metric comparison of two runs:
// every metric present in either manifest, with absolute and relative
// deltas of its Value (a histogram's mean), plus the headline
// wall/sim/events comparison.
func DiffManifests(a, b RunManifest) string {
	var out strings.Builder
	fmt.Fprintf(&out, "diff %s (seed %d, %s) vs %s (seed %d, %s)\n",
		a.ExperimentID, a.Seed, a.Version, b.ExperimentID, b.Seed, b.Version)
	fmt.Fprintf(&out, "  wall   %12s -> %-12s (%s)\n", a.WallTime.Round(time.Millisecond), b.WallTime.Round(time.Millisecond), ratio(float64(a.WallTime), float64(b.WallTime)))
	fmt.Fprintf(&out, "  sim    %12s -> %-12s\n", a.SimTime, b.SimTime)
	fmt.Fprintf(&out, "  events %12d -> %-12d (%s)\n", a.EventsExecuted, b.EventsExecuted, ratio(float64(a.EventsExecuted), float64(b.EventsExecuted)))

	am := map[string]Metric{}
	for _, m := range a.Metrics {
		am[m.Name] = m
	}
	bm := map[string]Metric{}
	for _, m := range b.Metrics {
		bm[m.Name] = m
	}
	names := make([]string, 0, len(am)+len(bm))
	seen := map[string]bool{}
	for n := range am {
		names = append(names, n)
		seen[n] = true
	}
	for n := range bm {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		ma, inA := am[n]
		mb, inB := bm[n]
		switch {
		case !inA:
			fmt.Fprintf(&out, "  + %-42s %.6g\n", n, mb.Value)
		case !inB:
			fmt.Fprintf(&out, "  - %-42s %.6g\n", n, ma.Value)
		default:
			va, vb := ma.Value, mb.Value
			if va == vb {
				continue
			}
			fmt.Fprintf(&out, "    %-42s %12.6g -> %-12.6g (%s)\n", n, va, vb, ratio(va, vb))
		}
	}
	return out.String()
}

func ratio(a, b float64) string {
	if a == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(b/a-1))
}
