// Package stats provides the small statistical toolkit the measurement
// experiments need: summaries (mean ± std), quantiles and histogram
// binning.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the first two moments and range of a sample.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// String formats a Summary as "mean ± std".
func (s Summary) String() string { return fmt.Sprintf("%.2f ± %.2f", s.Mean, s.Std) }

// Quantiles returns the q-quantile (0 ≤ q ≤ 1) of xs for each of qs, in
// order. It sorts one copy of xs, leaving xs as it was, and interpolates
// linearly between the order statistics either side of q·(n−1). Every
// quantile of an empty sample is 0.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, q := range qs {
		pos := q * float64(len(s)-1)
		switch lo, hi := int(math.Floor(pos)), int(math.Ceil(pos)); {
		case q <= 0:
			out[i] = s[0]
		case q >= 1:
			out[i] = s[len(s)-1]
		case lo == hi:
			out[i] = s[lo]
		default:
			out[i] = s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
		}
	}
	return out
}

// Bin is one histogram bucket over [Lo, Hi).
type Bin struct {
	Lo, Hi float64
	Count  int
}

// Frac returns the bin's share of total.
func (b Bin) Frac(total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(b.Count) / float64(total)
}

// Histogram counts xs into the half-open ranges defined by edges
// ([e0,e1), [e1,e2), …). Values outside [e0, eLast) are dropped into the
// nearest edge bin, matching how the paper buckets RSRP into fixed
// categories.
func Histogram(xs []float64, edges []float64) []Bin {
	if len(edges) < 2 {
		panic("stats: Histogram needs at least two edges")
	}
	bins := make([]Bin, len(edges)-1)
	for i := range bins {
		bins[i] = Bin{Lo: edges[i], Hi: edges[i+1]}
	}
	for _, x := range xs {
		idx := sort.SearchFloat64s(edges, x)
		// SearchFloat64s returns the insertion point; shift to bin index.
		if idx > 0 && (idx == len(edges) || edges[idx] != x) {
			idx--
		}
		if idx >= len(bins) {
			idx = len(bins) - 1
		}
		bins[idx].Count++
	}
	return bins
}
