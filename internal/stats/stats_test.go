package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if s.Mean != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean)
	}
	// Sample std of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("Std = %v, want %v", s.Std, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		xs      []float64
		q, want float64
	}{
		{xs, 0, 1}, {xs, 0.25, 2}, {xs, 0.5, 3}, {xs, 0.75, 4}, {xs, 1, 5},
		{xs, 0.1, 1.4}, {xs, 0.6, 3.4},
		{nil, 0.5, 0}, // an empty sample yields 0
	}
	for _, c := range cases {
		if got := Quantiles(c.xs, c.q)[0]; math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantiles(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	// One call answers every q, in the order asked.
	qs := []float64{0.6, 0, 1, 0.1, 0.5}
	got := Quantiles(xs, qs...)
	for i, q := range qs {
		if want := Quantiles(xs, q)[0]; got[i] != want {
			t.Errorf("Quantiles(%v, %v)[%d] = %v, want %v as asked alone", xs, qs, i, got[i], want)
		}
	}
	if got := Quantiles(nil, 0.1, 0.9); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Errorf("Quantiles(nil, 0.1, 0.9) = %v, want [0 0]", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantiles(xs, 0.1, 0.5, 0.9)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantiles mutated its input")
	}
}

func TestHistogram(t *testing.T) {
	// Paper-style RSRP buckets.
	edges := []float64{-140, -105, -90, -80, -70, -60, -40}
	xs := []float64{-120, -100, -95, -85, -75, -65, -50, -41}
	bins := Histogram(xs, edges)
	wantCounts := []int{1, 2, 1, 1, 1, 2}
	if len(bins) != len(wantCounts) {
		t.Fatalf("got %d bins", len(bins))
	}
	total := 0
	for i, b := range bins {
		if b.Count != wantCounts[i] {
			t.Errorf("bin %d [%v,%v) count = %d, want %d", i, b.Lo, b.Hi, b.Count, wantCounts[i])
		}
		total += b.Count
	}
	if total != len(xs) {
		t.Fatalf("histogram lost samples: %d != %d", total, len(xs))
	}
}

func TestHistogramConservesMassProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1000))
			}
		}
		edges := []float64{-1000, -10, 0, 10, 1000}
		bins := Histogram(xs, edges)
		total := 0
		for _, b := range bins {
			total += b.Count
		}
		return total == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
