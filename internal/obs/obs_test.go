package obs

import (
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Count returns the number of observations. Nil-safe (0).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.count)
}

// Sum returns the sum of observations. Nil-safe (0).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&h.sum))
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the landing bucket, clamped to the observed min/max. Nil-safe.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.load().quantile(q)
}

func TestNilRegistryHandsOutNoopHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", DurationBuckets)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must be no-ops")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	if r.Counter("a.count") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("a.gauge")
	g.Set(7)
	g.Set(3)
	if g.Value() != 3 || g.Max() != 7 {
		t.Fatalf("gauge = %d max %d, want 3 max 7", g.Value(), g.Max())
	}
	g.Add(10)
	if g.Value() != 13 || g.Max() != 13 {
		t.Fatalf("gauge after Add = %d max %d, want 13 max 13", g.Value(), g.Max())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 100, 1000})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i)) // uniform 1..100
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %g", h.Sum())
	}
	p50 := h.Quantile(0.5)
	if p50 < 10 || p50 > 100 {
		t.Fatalf("p50 = %g, want within the 10..100 bucket", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 || p99 > 100 {
		t.Fatalf("p99 = %g, want in (p50, 100]", p99)
	}
	// Overflow bucket: beyond the last bound, quantiles clamp to max.
	h.Observe(5000)
	if q := h.Quantile(1); q != 5000 {
		t.Fatalf("q1 = %g, want observed max 5000", q)
	}
}

func TestSnapshotSortedAndRendered(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.second").Add(2)
	r.Counter("a.first").Add(1)
	r.Gauge("c.third").Set(9)
	r.Histogram("d.hist", ByteBuckets).Observe(2048)
	snap := r.Snapshot()
	var names []string
	for _, m := range snap {
		names = append(names, m.Name)
	}
	want := []string{"a.first", "b.second", "c.third", "d.hist"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot order = %v, want %v", names, want)
		}
	}
	text := r.Text()
	if !strings.Contains(text, "a.first") || !strings.Contains(text, "p99=") {
		t.Fatalf("text exposition missing fields:\n%s", text)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("hist", DurationBuckets)
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j))
				r.Gauge("g").Set(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("hist", nil).Count(); got != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", got)
	}
}

// TestRegistryReadsDuringWrites runs every reader of the one
// instrument copy (Snapshot, Merge, WriteProm, Text, Quantile) against
// live writers; under -race it checks the copy is the only shared read.
func TestRegistryReadsDuringWrites(t *testing.T) {
	r, dst := NewRegistry(), NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(int64(j))
				r.Histogram("h", DurationBuckets).Observe(float64(j))
			}
		}()
	}
	for k := 0; k < 20; k++ {
		r.Snapshot()
		dst.Merge(r)
		WriteProm(io.Discard, r)
		_ = r.Text()
		r.Histogram("h", DurationBuckets).Quantile(0.5)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 2000 {
		t.Fatalf("counter = %d, want 2000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 2000 {
		t.Fatalf("histogram count = %d, want 2000", got)
	}
}

func TestTracerRingBoundsAndOrder(t *testing.T) {
	tr := newTracer(4)
	for i := 0; i < 7; i++ {
		tr.Span("e", "cat", time.Duration(i), 1)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Sim != time.Duration(3+i) {
			t.Fatalf("ring order wrong: evs[%d].Sim = %v", i, e.Sim)
		}
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
}

var tracerSink *Tracer

// TestNewTracerGrowsOnDemand: a tracer's ring grows with the events it
// records, up to its bound, so making one costs next to nothing however
// large the bound is. A whole quick campaign records about 150 spans of
// the 65,536 a tracer may hold; a ring made whole up front cost 4 MiB.
func TestNewTracerGrowsOnDemand(t *testing.T) {
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		tracerSink = NewTracer()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 64<<10 {
		t.Fatalf("NewTracer allocates %d bytes, want under 64 KiB", per)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer()
	tr.Span("tx", "netsim", 10*time.Microsecond, 5*time.Microsecond)
	tr.Span("outage", "netsim", 20*time.Microsecond, 7*time.Microsecond)
	tr.WallSpan("cb", "des", 30*time.Microsecond, 2*time.Microsecond)
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 3 {
		t.Fatalf("exported %d events, want 3", len(out.TraceEvents))
	}
	if out.TraceEvents[0]["ph"] != "X" || out.TraceEvents[0]["ts"] != 10.0 || out.TraceEvents[0]["dur"] != 5.0 {
		t.Fatalf("span event wrong: %v", out.TraceEvents[0])
	}
	if out.TraceEvents[1]["ph"] != "X" || out.TraceEvents[1]["ts"] != 20.0 || out.TraceEvents[1]["dur"] != 7.0 {
		t.Fatalf("second span wrong: %v", out.TraceEvents[1])
	}
	wall := out.TraceEvents[2]
	if wall["ph"] != "X" || wall["ts"] != 30.0 || wall["dur"] != 2.0 || wall["args"].(map[string]any)["wall_dur_us"] != 2.0 {
		t.Fatalf("wall span wrong: %v", wall)
	}
}

func TestNilTracerNoop(t *testing.T) {
	var tr *Tracer
	tr.Span("y", "c", 0, 1)
	tr.WallSpan("z", "c", 0, 1)
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer must be inert")
	}
}

func TestManifestRoundTripAndDiff(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricEventsFired).Add(1234)
	reg.Gauge(MetricSimTime).Set(int64(8 * time.Second))
	reg.Counter("netsim.pkt_dropped{hop=b}").Add(7)
	m := NewManifest("F7", "test run", 42, true, time.Now(), 3*time.Second, reg)
	if m.EventsExecuted != 1234 {
		t.Fatalf("EventsExecuted = %d, want 1234", m.EventsExecuted)
	}
	if m.SimTime != 8*time.Second {
		t.Fatalf("SimTime = %v, want 8s", m.SimTime)
	}
	if m.Version == "" {
		t.Fatal("version must be non-empty")
	}

	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back RunManifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ExperimentID != "F7" || back.EventsExecuted != 1234 || len(back.Metrics) != len(m.Metrics) {
		t.Fatalf("round trip lost data: %+v", back)
	}

	reg2 := NewRegistry()
	reg2.Counter(MetricEventsFired).Add(2468)
	reg2.Counter("netsim.pkt_dropped{hop=b}").Add(14)
	m2 := NewManifest("F7", "test run", 42, true, time.Now(), 3*time.Second, reg2)
	diff := DiffManifests(m, m2)
	if !strings.Contains(diff, "netsim.pkt_dropped{hop=b}") || !strings.Contains(diff, "+100.0%") {
		t.Fatalf("diff missing doubled drop counter:\n%s", diff)
	}
}
