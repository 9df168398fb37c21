// Package stats provides the small statistical toolkit the measurement
// experiments need: summaries (mean ± std), quantiles, histogram
// binning and correlation.
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

// Mean returns the arithmetic mean of xs (0 for an empty sample).
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by sorting a copy
// and interpolating linearly between the order statistics either side
// of q·(n−1). An empty sample yields 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
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

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples, or 0 when undefined (empty input or zero variance).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
