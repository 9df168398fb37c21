package coverage

import (
	"math"
	"testing"

	"fivegsim/internal/geom"

	"fivegsim/internal/deploy"
	"fivegsim/internal/radio"
	"fivegsim/internal/stats"
)

func testSurvey(t *testing.T) (*deploy.Campus, *Survey) {
	t.Helper()
	c := deploy.New(42)
	return c, RunSurvey(c, 4630, 42, 1)
}

func TestTable1RSRPSummaries(t *testing.T) {
	_, s := testSurvey(t)
	nr := s.RSRPSummary(radio.NR)
	lte := s.RSRPSummary(radio.LTE)
	// Paper Table 1: 5G −84.03 ± 11.72, 4G −84.84 ± 8.72 dBm.
	if math.Abs(nr.Mean-(-84.03)) > 4 {
		t.Fatalf("5G mean RSRP = %.2f, paper −84.03", nr.Mean)
	}
	if math.Abs(lte.Mean-(-84.84)) > 4 {
		t.Fatalf("4G mean RSRP = %.2f, paper −84.84", lte.Mean)
	}
	if nr.Std <= lte.Std {
		t.Fatalf("5G RSRP spread (%.2f) must exceed 4G's (%.2f), as in Table 1", nr.Std, lte.Std)
	}
}

func TestTable2HoleFractions(t *testing.T) {
	_, s := testSurvey(t)
	nr := s.HoleFraction(radio.NR, false)
	lte := s.HoleFraction(radio.LTE, false)
	lte6 := s.HoleFraction(radio.LTE, true)
	// Paper Table 2: 8.07 % (5G), 1.77 % (4G), 3.84 % (4G, 6 eNBs).
	if nr < 0.05 || nr > 0.12 {
		t.Fatalf("5G hole fraction = %.2f%%, paper 8.07%%", 100*nr)
	}
	if lte > 0.03 {
		t.Fatalf("4G hole fraction = %.2f%%, paper 1.77%%", 100*lte)
	}
	// Orderings the paper emphasizes: equal-density 4G still beats 5G, and
	// full-density 4G beats the co-sited subset.
	if !(lte < lte6 && lte6 < nr) {
		t.Fatalf("hole ordering violated: 4G %.3f, 4G(6) %.3f, 5G %.3f", lte, lte6, nr)
	}
}

func TestTable2DistributionShape(t *testing.T) {
	_, s := testSurvey(t)
	bins := s.RSRPDistribution(radio.NR, false)
	if len(bins) != 6 {
		t.Fatalf("want 6 RSRP buckets, got %d", len(bins))
	}
	if bins[0].Lo != -60 || bins[0].Hi != -40 {
		t.Fatalf("first bucket should be [-60,-40), got [%v,%v)", bins[0].Lo, bins[0].Hi)
	}
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != len(s.Samples) {
		t.Fatalf("distribution loses samples: %d != %d", total, len(s.Samples))
	}
	// The modal bucket for both techs is [-90,-80), as in the paper.
	for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
		bs := s.RSRPDistribution(tech, false)
		maxIdx := 0
		for i, b := range bs {
			if b.Count > bs[maxIdx].Count {
				maxIdx = i
			}
		}
		if bs[maxIdx].Lo != -90 {
			t.Fatalf("%v modal bucket is [%v,%v), paper has [-90,-80)", tech, bs[maxIdx].Lo, bs[maxIdx].Hi)
		}
	}
}

func TestFig2CellRadii(t *testing.T) {
	c, _ := testSurvey(t)
	nr := UsableRadius(c, c.CellByPCI(72))
	lte := UsableRadius(c, c.CellByPCI(100))
	if nr < 180 || nr > 290 {
		t.Fatalf("5G usable radius = %.0f m, paper ≈230 m", nr)
	}
	if lte < 420 || lte > 640 {
		t.Fatalf("4G usable radius = %.0f m, paper ≈520 m", lte)
	}
	if lte < 1.8*nr {
		t.Fatalf("4G radius (%.0f) should be ≈2× the 5G radius (%.0f)", lte, nr)
	}
}

func TestFig3IndoorOutdoorGap(t *testing.T) {
	c, _ := testSurvey(t)
	nr := stats.Summarize(IndoorOutdoorGap(c, radio.NR, 7))
	lte := stats.Summarize(IndoorOutdoorGap(c, radio.LTE, 7))
	// Paper Fig. 3: mean drop 50.59 % (5G) vs 20.38 % (4G) — "more than 2×".
	if nr.Mean < 0.38 || nr.Mean > 0.62 {
		t.Fatalf("5G indoor drop = %.1f%%, paper 50.59%%", 100*nr.Mean)
	}
	if lte.Mean < 0.10 || lte.Mean > 0.32 {
		t.Fatalf("4G indoor drop = %.1f%%, paper 20.38%%", 100*lte.Mean)
	}
	if nr.Mean < 1.7*lte.Mean {
		t.Fatalf("5G indoor drop (%.2f) must be ≳2× 4G's (%.2f)", nr.Mean, lte.Mean)
	}
	if nr.N < 30 || lte.N < 30 {
		t.Fatalf("too few indoor/outdoor pairs: %d / %d", nr.N, lte.N)
	}
}

func TestGridMapCoverage(t *testing.T) {
	c := deploy.New(42)
	grid := GridMap(c, radio.NR, 50, 1)
	if len(grid) == 0 || len(grid[0]) == 0 {
		t.Fatal("empty grid")
	}
	usable, holes := 0, 0
	for _, row := range grid {
		for _, gc := range row {
			if gc.RSRPdBm >= radio.ServiceThresholdDBm {
				usable++
			} else {
				holes++
			}
		}
	}
	if usable == 0 || holes == 0 {
		t.Fatalf("grid should contain both coverage and holes (usable=%d holes=%d)", usable, holes)
	}
}

func TestCellLockedMeasureMatchesServingCell(t *testing.T) {
	c := deploy.New(42)
	cell := c.CellByPCI(72)
	p := cell.Pos.Add(geom.Point{X: 40, Y: 10})
	m := CellLockedMeasure(c, cell, p)
	if m.PCI != 72 {
		t.Fatalf("locked measurement reports PCI %d", m.PCI)
	}
	if !m.Usable() {
		t.Fatalf("40 m from the gNB should be usable, RSRP %.1f", m.RSRPdBm)
	}
}

func TestSurveySamplesOutdoor(t *testing.T) {
	c, s := testSurvey(t)
	indoor := 0
	for _, sm := range s.Samples {
		if c.Indoor(sm.Pos) {
			indoor++
		}
	}
	if frac := float64(indoor) / float64(len(s.Samples)); frac > 0.01 {
		t.Fatalf("%.1f%% of walking-survey samples are indoors", 100*frac)
	}
}

func TestSurveyDeterminism(t *testing.T) {
	c := deploy.New(42)
	a := RunSurvey(c, 100, 7, 1)
	b := RunSurvey(c, 100, 7, 1)
	for i := range a.Samples {
		if a.Samples[i].Pos != b.Samples[i].Pos || a.Samples[i].NR.RSRPdBm != b.Samples[i].NR.RSRPdBm {
			t.Fatal("survey must be deterministic for a fixed seed")
		}
	}
}

func TestBitRateContourDecreasesOutward(t *testing.T) {
	// Fig. 2b shape: bit-rate near the cell beats bit-rate at range.
	c := deploy.New(42)
	cell := c.CellByPCI(72)
	band := radio.BandNR()
	near := CellLockedMeasure(c, cell, cell.Pos.Add(geom.Point{X: 30, Y: 15}))
	rateNear := radio.DLBitRate(near, band, band.PRBs)
	var rateFarSum float64
	n := 0
	for _, d := range []float64{180, 200, 220} {
		az := cell.Antenna.BoresightDeg * math.Pi / 180
		p := cell.Pos.Add(geom.Point{X: d * math.Cos(az), Y: d * math.Sin(az)})
		m := CellLockedMeasure(c, cell, p)
		rateFarSum += radio.DLBitRate(m, band, band.PRBs)
		n++
	}
	if rateNear <= rateFarSum/float64(n) {
		t.Fatalf("bit-rate contour not decreasing: near %.0f ≤ far %.0f", rateNear, rateFarSum/float64(n))
	}
	// Near the site, the 5G link approaches Gbps (Fig. 2b's 1000-1200 bands).
	if rateNear < 800e6 {
		t.Fatalf("near-cell bit-rate = %.0f Mb/s, want ≈Gbps", rateNear/1e6)
	}
}
