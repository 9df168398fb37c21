// Package obs is the simulator-wide telemetry substrate: a registry of
// named counters, gauges and fixed-bucket histograms, a bounded tracer
// with Chrome-trace export, and the run manifest attached to every
// experiment result.
//
// The package is zero-dependency and allocation-light by design. All
// instrument handles are nil-safe: a nil *Registry hands out nil
// *Counter/*Gauge/*Histogram handles whose methods are no-ops, so
// instrumented code pays only a nil check when telemetry is off. Handles
// are safe for concurrent use (atomics throughout); handle creation
// takes a registry lock and is meant for setup paths, not hot loops.
//
// Metric names follow the `pkg.metric{label=value}` convention, e.g.
// `des.events_fired` or `netsim.pkt_dropped{hop=bottleneck}`. Snapshots
// render in sorted name order.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64.
type Counter struct{ v int64 }

// Add increments the counter. Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.v, n)
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Nil-safe (0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Gauge is an instantaneous int64 level that also remembers its
// high-water mark (the max ever Set), which is what queue-depth and
// buffer-occupancy metrics report.
type Gauge struct {
	v   int64
	max int64
}

// Set stores the current level and updates the high-water mark. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	atomic.StoreInt64(&g.v, v)
	g.raise(v)
}

// Add shifts the current level by delta. Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.raise(atomic.AddInt64(&g.v, delta))
}

// raise lifts the high-water mark to v if v exceeds it.
func (g *Gauge) raise(v int64) {
	for {
		m := atomic.LoadInt64(&g.max)
		if v <= m || atomic.CompareAndSwapInt64(&g.max, m, v) {
			return
		}
	}
}

// Value returns the current level. Nil-safe (0).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.v)
}

// Max returns the high-water mark. Nil-safe (0).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.max)
}

// Histogram is a fixed-bucket histogram over float64 observations.
// Buckets are cumulative-style upper bounds plus an implicit +Inf
// overflow bucket; sum/count/min/max are tracked exactly, quantiles are
// estimated by linear interpolation inside the landing bucket.
type Histogram struct {
	bounds []float64 // sorted upper bounds; len(counts) == len(bounds)+1
	counts []int64
	count  int64
	sum    uint64 // float64 bits, CAS-updated
	min    uint64 // float64 bits
	max    uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]int64, len(b)+1),
		min:    math.Float64bits(math.Inf(1)),
		max:    math.Float64bits(math.Inf(-1)),
	}
}

// Observe records one sample. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.count, 1)
	addFloat(&h.sum, v)
	casFloat(&h.min, v, func(cur float64) bool { return v < cur })
	casFloat(&h.max, v, func(cur float64) bool { return v > cur })
}

func addFloat(bits *uint64, v float64) {
	for {
		old := atomic.LoadUint64(bits)
		if atomic.CompareAndSwapUint64(bits, old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func casFloat(bits *uint64, v float64, better func(cur float64) bool) {
	for {
		old := atomic.LoadUint64(bits)
		if !better(math.Float64frombits(old)) {
			return
		}
		if atomic.CompareAndSwapUint64(bits, old, math.Float64bits(v)) {
			return
		}
	}
}

// histState is a histogram's atomics copied out at one instant; bounds
// are shared, since a histogram never changes them after creation.
type histState struct {
	bounds        []float64
	counts        []int64
	count         int64
	sum, min, max float64
}

func (h *Histogram) load() histState {
	s := histState{
		bounds: h.bounds,
		counts: make([]int64, len(h.counts)),
		count:  atomic.LoadInt64(&h.count),
		sum:    math.Float64frombits(atomic.LoadUint64(&h.sum)),
		min:    math.Float64frombits(atomic.LoadUint64(&h.min)),
		max:    math.Float64frombits(atomic.LoadUint64(&h.max)),
	}
	for i := range h.counts {
		s.counts[i] = atomic.LoadInt64(&h.counts[i])
	}
	return s
}

func (s histState) quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	target := q * float64(s.count)
	var cum float64
	lo := s.min
	for i, bound := range s.bounds {
		c := float64(s.counts[i])
		if cum+c >= target && c > 0 {
			v := lo + (target-cum)/c*(bound-lo)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
		cum += c
		if bound > lo {
			lo = bound
		}
	}
	return s.max
}

// add folds a copied histogram with the same ladder into h.
func (h *Histogram) add(s histState) {
	var count int64
	for i, c := range s.counts {
		atomic.AddInt64(&h.counts[i], c)
		count += c
	}
	if count == 0 {
		return
	}
	atomic.AddInt64(&h.count, count)
	addFloat(&h.sum, s.sum)
	casFloat(&h.min, s.min, func(cur float64) bool { return s.min < cur })
	casFloat(&h.max, s.max, func(cur float64) bool { return s.max > cur })
}

// Default bucket ladders for the simulator's common units.
var (
	// DurationBuckets covers event-callback and RTT-style latencies in
	// microseconds: 1 µs … ~16 s, ×2 per bucket.
	DurationBuckets = expBuckets(1, 2, 24)
	// ByteBuckets covers queue/buffer occupancies: 1 KiB … 64 MiB.
	ByteBuckets = expBuckets(1024, 2, 17)
)

// expBuckets returns n upper bounds start, start·f, start·f², …
func expBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry is a concurrent-safe collection of named instruments.
// The zero value is not usable; use NewRegistry. A nil *Registry is the
// telemetry-off state: it hands out nil handles.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
// Nil-safe: a nil registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the first bounds).
// Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// instrument is one registry instrument copied out under the registry
// lock: the one read path behind Snapshot, Merge and WriteProm.
type instrument struct {
	name string
	kind string // counter | gauge | histogram
	v    int64  // counter value or gauge level
	max  int64  // gauge high-water mark
	hist histState
}

// instruments copies every instrument, sorted by name.
func (r *Registry) instruments() []instrument {
	r.mu.Lock()
	out := make([]instrument, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, instrument{name: name, kind: "counter", v: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, instrument{name: name, kind: "gauge", v: g.Value(), max: g.Max()})
	}
	for name, h := range r.hists {
		out = append(out, instrument{name: name, kind: "histogram", hist: h.load()})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].kind < out[j].kind
	})
	return out
}

// Merge folds src's instruments into r: counters sum, gauges take src's
// current value (last write wins) while high-water marks take the max,
// and histogram buckets add. Instruments missing from r are created.
// Merging from or into a nil registry — or a registry into itself — is
// a safe no-op. Every histogram name has one ladder, so Merge panics
// when r and src registered a name with different bounds.
//
// The parallel campaign engine gives each shard its own registry and
// merges them in shard order, so merged counter totals and histogram
// bucket counts are identical for every worker count. (Histogram float
// sums are accumulated in merge order and may differ from a serial run
// in the last ulp.) Merge copies src first, so it is safe against
// concurrent writers on either side, but the combined result is only
// meaningful once src's shard has finished writing.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil || r == src {
		return
	}
	for _, in := range src.instruments() {
		switch in.kind {
		case "counter":
			r.Counter(in.name).Add(in.v)
		case "gauge":
			g := r.Gauge(in.name)
			atomic.StoreInt64(&g.v, in.v)
			g.raise(in.max)
		case "histogram":
			h := r.Histogram(in.name, in.hist.bounds)
			if !slices.Equal(h.bounds, in.hist.bounds) {
				panic("obs: Merge of histogram " + in.name + " with a different bucket ladder")
			}
			h.add(in.hist)
		}
	}
}

// Metric is one snapshotted instrument.
type Metric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // counter | gauge | histogram
	Value float64 `json:"value"`
	// Gauge extras.
	Max float64 `json:"max,omitempty"`
	// Histogram extras (Value carries the mean).
	Count int64   `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Min   float64 `json:"min,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P90   float64 `json:"p90,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Snapshot captures every instrument, sorted by name.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	ins := r.instruments()
	out := make([]Metric, len(ins))
	for i, in := range ins {
		m := Metric{Name: in.name, Kind: in.kind, Value: float64(in.v), Max: float64(in.max)}
		if h := in.hist; in.kind == "histogram" && h.count > 0 {
			m.Count, m.Sum = h.count, h.sum
			m.Value = h.sum / float64(h.count)
			m.Min, m.Max = h.min, h.max
			m.P50 = h.quantile(0.50)
			m.P90 = h.quantile(0.90)
			m.P95 = h.quantile(0.95)
			m.P99 = h.quantile(0.99)
		}
		out[i] = m
	}
	return out
}

// String renders one metric as an exposition line.
func (m Metric) String() string {
	switch m.Kind {
	case "gauge":
		return fmt.Sprintf("%-44s %12.0f  max=%.0f", m.Name, m.Value, m.Max)
	case "histogram":
		return fmt.Sprintf("%-44s count=%d sum=%.6g mean=%.6g min=%.6g max=%.6g p50=%.6g p90=%.6g p95=%.6g p99=%.6g",
			m.Name, m.Count, m.Sum, m.Value, m.Min, m.Max, m.P50, m.P90, m.P95, m.P99)
	default:
		return fmt.Sprintf("%-44s %12.0f", m.Name, m.Value)
	}
}

// Text returns the sorted text exposition of the registry, one metric
// per line.
func (r *Registry) Text() string {
	var b strings.Builder
	for _, m := range r.Snapshot() {
		b.WriteString(m.String())
		b.WriteByte('\n')
	}
	return b.String()
}
