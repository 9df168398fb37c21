package obs

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestMergeCountersSum(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("des.events_fired").Add(10)
	b.Counter("des.events_fired").Add(32)
	b.Counter("netsim.pkt_dropped").Add(5)

	a.Merge(b)
	if got := a.Counter("des.events_fired").Value(); got != 42 {
		t.Fatalf("merged counter = %d, want 42", got)
	}
	if got := a.Counter("netsim.pkt_dropped").Value(); got != 5 {
		t.Fatalf("counter absent from dst must be created with src value, got %d", got)
	}
	// Merge must not mutate the source.
	if got := b.Counter("des.events_fired").Value(); got != 32 {
		t.Fatalf("src counter changed to %d", got)
	}
}

func TestMergeGaugesLastWriteAndHighWater(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Gauge("netsim.queue_depth").Set(90) // dst high-water 90
	a.Gauge("netsim.queue_depth").Set(3)
	b.Gauge("netsim.queue_depth").Set(40)
	b.Gauge("netsim.queue_depth").Set(7) // src current 7, high-water 40

	a.Merge(b)
	g := a.Gauge("netsim.queue_depth")
	if g.Value() != 7 {
		t.Fatalf("gauge value = %d, want src's last write 7", g.Value())
	}
	if g.Max() != 90 {
		t.Fatalf("gauge max = %d, want max-of-maxes 90", g.Max())
	}
}

func TestMergeHistogramBucketsAdd(t *testing.T) {
	bounds := []float64{1, 10, 100}
	a, b := NewRegistry(), NewRegistry()
	for _, v := range []float64{0.5, 5, 5, 50} {
		a.Histogram("rtt", bounds).Observe(v)
	}
	for _, v := range []float64{5, 500, 0.25} {
		b.Histogram("rtt", bounds).Observe(v)
	}

	a.Merge(b)
	h := a.Histogram("rtt", bounds)
	if h.Count() != 7 {
		t.Fatalf("merged count = %d, want 7", h.Count())
	}
	wantCounts := []int64{2, 3, 1, 1} // (≤1, ≤10, ≤100, overflow)
	for i, w := range wantCounts {
		if h.counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.counts[i], w)
		}
	}
	if got, want := h.Sum(), 0.5+5+5+50+5+500+0.25; math.Abs(got-want) > 1e-9 {
		t.Fatalf("merged sum = %g, want %g", got, want)
	}
	if mn := math.Float64frombits(h.min); mn != 0.25 {
		t.Fatalf("merged min = %g, want 0.25", mn)
	}
	if mx := math.Float64frombits(h.max); mx != 500 {
		t.Fatalf("merged max = %g, want 500", mx)
	}
}

func TestMergeHistogramBoundsMismatchPanics(t *testing.T) {
	for _, bounds := range [][]float64{{1, 2, 4}, {10, 200}} {
		a, b := NewRegistry(), NewRegistry()
		a.Histogram("lat", []float64{10, 100}).Observe(3)
		b.Histogram("lat", bounds).Observe(1.5)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "lat") {
					t.Fatalf("Merge of ladder %v into {10, 100}: recovered %v, want a panic naming the histogram", bounds, r)
				}
			}()
			a.Merge(b)
		}()
	}
}

func TestMergeNilAndSelfNoOps(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)

	var nilReg *Registry
	nilReg.Merge(r) // must not panic
	r.Merge(nil)
	r.Merge(r)
	if got := r.Counter("c").Value(); got != 1 {
		t.Fatalf("self/nil merges changed counter to %d", got)
	}
}

func TestMergeOrderInvariantTotals(t *testing.T) {
	// Shard registries merged in any order must agree on counter totals
	// and histogram bucket counts — the property the parallel campaign
	// engine's determinism rests on.
	mk := func() []*Registry {
		shards := make([]*Registry, 3)
		for i := range shards {
			shards[i] = NewRegistry()
			shards[i].Counter("n").Add(int64(i + 1))
			for j := 0; j <= i; j++ {
				shards[i].Histogram("h", []float64{1, 2}).Observe(float64(j))
			}
		}
		return shards
	}
	fwd, rev := NewRegistry(), NewRegistry()
	for _, s := range mk() {
		fwd.Merge(s)
	}
	shards := mk()
	for i := len(shards) - 1; i >= 0; i-- {
		rev.Merge(shards[i])
	}
	if fwd.Counter("n").Value() != rev.Counter("n").Value() {
		t.Fatal("counter totals depend on merge order")
	}
	hf, hr := fwd.Histogram("h", []float64{1, 2}), rev.Histogram("h", []float64{1, 2})
	if hf.Count() != hr.Count() {
		t.Fatal("histogram counts depend on merge order")
	}
	for i := range hf.counts {
		if hf.counts[i] != hr.counts[i] {
			t.Fatalf("bucket %d depends on merge order: %d vs %d", i, hf.counts[i], hr.counts[i])
		}
	}
}
