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

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
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

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if r := Pearson(xs, []float64{2, 4, 6, 8, 10}); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect positive correlation = %v", r)
	}
	if r := Pearson(xs, []float64{10, 8, 6, 4, 2}); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect negative correlation = %v", r)
	}
	if r := Pearson(xs, []float64{3, 3, 3, 3, 3}); r != 0 {
		t.Fatalf("zero-variance correlation = %v", r)
	}
	if r := Pearson(xs, []float64{1, 2}); r != 0 {
		t.Fatalf("mismatched lengths should be 0, got %v", r)
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(pairs []float64) bool {
		if len(pairs) < 4 {
			return true
		}
		for _, v := range pairs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // squared terms overflow float64
			}
		}
		half := len(pairs) / 2
		r := Pearson(pairs[:half], pairs[half:2*half])
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
