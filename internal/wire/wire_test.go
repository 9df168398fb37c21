package wire

import (
	"math"
	"testing"
	"time"

	"fivegsim/internal/radio"
	"fivegsim/internal/stats"
)

func TestTable6Catalog(t *testing.T) {
	if len(Servers) != 20 {
		t.Fatalf("Table 6 has 20 servers, got %d", len(Servers))
	}
	prev := 0.0
	for _, s := range Servers {
		if s.DistanceKm < prev {
			t.Fatalf("servers not ordered by distance at %s", s.Name)
		}
		prev = s.DistanceKm
		if s.IP == "" || s.City == "" || s.Lat == 0 || s.Lon == 0 {
			t.Fatalf("incomplete server record: %+v", s)
		}
	}
	if Servers[0].DistanceKm != 1.67 || math.Abs(Servers[19].DistanceKm-3426.37) > 0.01 {
		t.Fatal("distance endpoints do not match Table 6")
	}
}

func TestFig13Scatter(t *testing.T) {
	pairs := RTTScatter(42, 1)
	if len(pairs) != 80 {
		t.Fatalf("paper measures 80 paths, got %d", len(pairs))
	}
	s := Summarize(pairs)
	// Paper: 5G one-way 21.8 ms; gap 22.3 ms (31.86 %).
	oneWay := float64(s.MeanOneWay5G) / float64(time.Millisecond)
	if math.Abs(oneWay-21.8) > 4 {
		t.Fatalf("5G mean one-way = %.1f ms, paper 21.8", oneWay)
	}
	gap := float64(s.MeanRTTGap) / float64(time.Millisecond)
	if math.Abs(gap-22.3) > 3 {
		t.Fatalf("RTT gap = %.1f ms, paper 22.3", gap)
	}
	if s.GapFraction < 0.2 || s.GapFraction > 0.45 {
		t.Fatalf("gap fraction = %.2f, paper 31.86%%", s.GapFraction)
	}
	// 5G wins on every path.
	for _, p := range pairs {
		if p.RTT5G >= p.RTT4G {
			t.Fatalf("5G slower than 4G to %s", p.Server.Name)
		}
	}
}

func TestFig14HopBreakdown(t *testing.T) {
	nr := HopBreakdown(radio.NR, 1)
	lte := HopBreakdown(radio.LTE, 1)
	if len(nr) != 8 || len(lte) != 8 {
		t.Fatalf("want 8 hops, got %d/%d", len(nr), len(lte))
	}
	// Hop 1 (RAN): 2.19 vs 2.6 ms — a negligible difference.
	h1nr := float64(nr[0].RTT) / float64(time.Millisecond)
	h1lte := float64(lte[0].RTT) / float64(time.Millisecond)
	if math.Abs(h1nr-2.19) > 0.5 || math.Abs(h1lte-2.6) > 0.5 {
		t.Fatalf("hop-1 RTTs %.2f/%.2f, paper 2.19/2.6", h1nr, h1lte)
	}
	// The reduction comes from hop 2 (the flat core): the 4G−5G gap at
	// hop 2 is ≈20 ms larger than at hop 1.
	gap1 := lte[0].RTT - nr[0].RTT
	gap2 := lte[1].RTT - nr[1].RTT
	delta := float64(gap2-gap1) / float64(time.Millisecond)
	if math.Abs(delta-22.3) > 3 {
		t.Fatalf("core-hop gap growth = %.1f ms, paper ≈20 ms", delta)
	}
	// Cumulative RTT must be monotone.
	for i := 1; i < 8; i++ {
		if nr[i].RTT <= nr[i-1].RTT || lte[i].RTT <= lte[i-1].RTT {
			t.Fatal("cumulative hop RTT not monotone")
		}
	}
}

func TestFig15RTTvsDistance(t *testing.T) {
	bins := RTTvsDistance(42, 1)
	// 5× RTT growth from ≈100 km to ≈2500 km.
	var rtt100, rtt2500 float64
	for _, b := range bins {
		if b.LoKm == 0 && b.RTT5G.N > 0 {
			rtt100 = b.RTT5G.Mean
		}
		if b.LoKm == 1800 && b.RTT5G.N > 0 {
			rtt2500 = b.RTT5G.Mean
		}
	}
	if rtt100 == 0 || rtt2500 == 0 {
		t.Fatal("missing distance bins")
	}
	ratio := rtt2500 / rtt100
	if ratio < 3 || ratio > 7.5 {
		t.Fatalf("RTT(2500)/RTT(100) = %.1f, paper ≈5×", ratio)
	}
	// Paper: ≈82.35 ms at 2500 km for 5G.
	if math.Abs(rtt2500-82.35) > 15 {
		t.Fatalf("5G RTT at long range = %.1f ms, paper 82.35", rtt2500)
	}
	// The 4G−5G gap is roughly constant (22±3.57 ms) so its *relative*
	// share shrinks with distance.
	first, last := bins[0], bins[len(bins)-1]
	gapFirst := first.RTT4G.Mean - first.RTT5G.Mean
	gapLast := last.RTT4G.Mean - last.RTT5G.Mean
	if math.Abs(gapFirst-22) > 5 || math.Abs(gapLast-22) > 5 {
		t.Fatalf("gap not ≈22 ms across distance: %.1f / %.1f", gapFirst, gapLast)
	}
	if gapLast/last.RTT4G.Mean >= gapFirst/first.RTT4G.Mean {
		t.Fatal("relative latency advantage should shrink with distance")
	}
}

func TestTable3BufferEstimates(t *testing.T) {
	nr := EstimateBuffers(seededPath(radio.NR, 42), 20*time.Second)
	lte := EstimateBuffers(seededPath(radio.LTE, 42), 20*time.Second)
	// Table 3 shape: wired dominates the whole path; the 5G path's wired
	// buffer ≈2.5× the 4G path's; whole path ≈2.5–3×.
	if nr.Wired <= nr.RAN {
		t.Fatalf("5G wired estimate (%d) must dominate RAN (%d)", nr.Wired, nr.RAN)
	}
	wiredRatio := float64(nr.Wired) / float64(lte.Wired)
	if wiredRatio < 1.8 || wiredRatio > 3.5 {
		t.Fatalf("wired buffer ratio = %.2f, paper ≈2.5", wiredRatio)
	}
	pathRatio := float64(nr.WholePath) / float64(lte.WholePath)
	if pathRatio < 1.8 || pathRatio > 4 {
		t.Fatalf("whole-path ratio = %.2f, paper ≈2.66", pathRatio)
	}
	// Magnitudes in the paper's units (60 B packets at 1 Gb/s): wired 5G
	// ≈26724, 4G ≈10539.
	if nr.Wired < 15000 || nr.Wired > 35000 {
		t.Fatalf("5G wired estimate = %d pkts, paper 26724", nr.Wired)
	}
	if lte.Wired < 6000 || lte.Wired > 14000 {
		t.Fatalf("4G wired estimate = %d pkts, paper 10539", lte.Wired)
	}
}

func TestHopCountGrowsWithDistance(t *testing.T) {
	if HopCount(1) >= HopCount(1000) || HopCount(1000) >= HopCount(3400) {
		t.Fatal("hop count must grow with distance")
	}
	if HopCount(0) < 4 {
		t.Fatal("minimum path has ≥4 hops")
	}
}

func TestBaseRTTMonotone(t *testing.T) {
	prev := time.Duration(0)
	for _, d := range []float64{1, 100, 500, 1500, 3000} {
		rtt := BaseRTT(radio.NR, d)
		if rtt <= prev {
			t.Fatal("BaseRTT not monotone in distance")
		}
		if BaseRTT(radio.LTE, d) <= rtt {
			t.Fatal("4G must be slower than 5G at every distance")
		}
		prev = rtt
	}
}

func TestFig13ScatterCorrelation(t *testing.T) {
	// The paper's scatter hugs a line offset by the constant core gap: the
	// per-path 4G and 5G RTTs must be strongly correlated (distance is the
	// shared driver).
	pairs := RTTScatter(42, 1)
	var xs, ys []float64
	for _, p := range pairs {
		xs = append(xs, float64(p.RTT4G))
		ys = append(ys, float64(p.RTT5G))
	}
	if r := pearson(xs, ys); r < 0.95 {
		t.Fatalf("4G/5G RTT correlation = %.3f, scatter should hug the diagonal", r)
	}
}

// pearson returns the Pearson correlation coefficient of two
// equal-length samples with nonzero variance.
func pearson(xs, ys []float64) float64 {
	mx, my := stats.Summarize(xs).Mean, stats.Summarize(ys).Mean
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}
