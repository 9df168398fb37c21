package deploy

import (
	"math"
	"testing"
	"testing/quick"

	"fivegsim/internal/geom"
	"fivegsim/internal/radio"
)

func TestDeploymentCounts(t *testing.T) {
	c := New(1)
	if len(c.NRSites) != 6 {
		t.Fatalf("gNB sites = %d, want 6", len(c.NRSites))
	}
	if len(c.NRCells) != 13 {
		t.Fatalf("NR cells = %d, want 13 (paper Table 1)", len(c.NRCells))
	}
	if len(c.LTESites) != 13 {
		t.Fatalf("eNB sites = %d, want 13", len(c.LTESites))
	}
	if len(c.LTECells) != 34 {
		t.Fatalf("LTE cells = %d, want 34 (paper Table 1)", len(c.LTECells))
	}
}

func TestDensitiesMatchPaper(t *testing.T) {
	c := New(1)
	if d := c.GNBDensityPerKm2(); math.Abs(d-12.99) > 0.5 {
		t.Fatalf("gNB density = %.2f/km², paper reports 12.99", d)
	}
	if d := c.ENBDensityPerKm2(); math.Abs(d-28.14) > 0.5 {
		t.Fatalf("eNB density = %.2f/km², paper reports 28.14", d)
	}
}

func TestRoadLength(t *testing.T) {
	c := New(1)
	if l := c.RoadLengthM(); math.Abs(l-6019) > 60 {
		t.Fatalf("road length = %.0f m, paper surveys 6019 m", l)
	}
}

func TestCoSiting(t *testing.T) {
	c := New(1)
	for i, s := range c.NRSites {
		if s.CoSitedWith != i {
			t.Fatalf("gNB %d not co-sited", i)
		}
		if c.LTESites[i].Pos != s.Pos {
			t.Fatalf("gNB %d and eNB %d not at the same pole", i, i)
		}
	}
	// Not all eNBs have 5G companions.
	withCompanion := 0
	for _, s := range c.LTESites {
		if s.CoSitedWith >= 0 {
			withCompanion++
		}
	}
	if withCompanion != 6 {
		t.Fatalf("eNBs with 5G companion = %d, want 6", withCompanion)
	}
}

func TestUniquePCIs(t *testing.T) {
	c := New(1)
	seen := map[int]bool{}
	for _, cell := range append(append([]*radio.Cell{}, c.NRCells...), c.LTECells...) {
		if seen[cell.PCI] {
			t.Fatalf("duplicate PCI %d", cell.PCI)
		}
		seen[cell.PCI] = true
	}
	for _, pci := range []int{72, 226, 44} { // cells used in the paper's case studies
		if c.CellByPCI(pci) == nil {
			t.Fatalf("PCI %d missing", pci)
		}
	}
	if c.CellByPCI(72).Tech != radio.NR {
		t.Fatal("PCI 72 must be a 5G cell (Fig. 2b)")
	}
}

func TestSitesInsideBounds(t *testing.T) {
	c := New(1)
	for _, s := range append(append([]Site{}, c.NRSites...), c.LTESites...) {
		if !c.Bounds.Contains(s.Pos) {
			t.Fatalf("site %v outside campus", s.Pos)
		}
		if c.Indoor(s.Pos) {
			t.Fatalf("site at %v is inside a building", s.Pos)
		}
	}
}

func TestShadowDeterministic(t *testing.T) {
	a, b := New(7), New(7)
	cell := a.NRCells[0]
	cellB := b.NRCells[0]
	p := geom.Point{X: 123.4, Y: 567.8}
	if a.ShadowDB(cell, p) != b.ShadowDB(cellB, p) {
		t.Fatal("shadow field must be deterministic in (seed, pci, pos)")
	}
	if a.ShadowDB(cell, p) == New(8).ShadowDB(cellB, p) {
		t.Fatal("different seeds should give a different shadow field")
	}
}

func TestShadowSpatialCorrelation(t *testing.T) {
	c := New(3)
	cell := c.NRCells[0]
	p := geom.Point{X: 200, Y: 200}
	near := c.ShadowDB(cell, p.Add(geom.Point{X: 1}))
	here := c.ShadowDB(cell, p)
	if math.Abs(near-here) > 3 {
		t.Fatalf("shadowing discontinuous over 1 m: %v vs %v", here, near)
	}
}

func TestShadowStatistics(t *testing.T) {
	c := New(5)
	cell := c.NRCells[0]
	want := radio.PropagationFor(radio.NR).ShadowStdDB
	var sum, ss float64
	n := 0
	for x := 5.0; x < 500; x += 7 {
		for y := 5.0; y < 920; y += 11 {
			v := c.ShadowDB(cell, geom.Point{X: x, Y: y})
			sum += v
			ss += v * v
			n++
		}
	}
	mean := sum / float64(n)
	std := math.Sqrt(ss/float64(n) - mean*mean)
	if math.Abs(mean) > 1 {
		t.Fatalf("shadow mean = %.2f, want ≈0", mean)
	}
	if math.Abs(std-want) > 1.5 {
		t.Fatalf("shadow std = %.2f, want ≈%.1f", std, want)
	}
}

func TestMeasureAllSorted(t *testing.T) {
	c := New(1)
	f := func(px, py uint16) bool {
		p := geom.Point{X: float64(px % WidthM), Y: float64(py % HeightM)}
		ms := c.MeasureAll(radio.NR, p)
		for i := 1; i < len(ms); i++ {
			if ms[i].RSRPdBm > ms[i-1].RSRPdBm {
				return false
			}
		}
		return len(ms) == 13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBestServerNearSite(t *testing.T) {
	c := New(1)
	// Right under the PCI-72 site, the best 5G server should be one of
	// that site's sectors, and service must be available.
	site := c.NRSites[3]
	m, ok := c.BestServer(radio.NR, site.Pos.Add(geom.Point{X: 20, Y: 5}))
	if !ok {
		t.Fatal("no best server")
	}
	if !m.Usable() {
		t.Fatalf("unusable next to a gNB: RSRP %.1f", m.RSRPdBm)
	}
	found := false
	for _, cell := range site.Cells {
		if cell.PCI == m.PCI {
			found = true
		}
	}
	if !found {
		t.Fatalf("best server PCI %d is not a sector of the adjacent site", m.PCI)
	}
}

func TestIndoorAndWalls(t *testing.T) {
	c := New(1)
	inside := c.Buildings[0].Center()
	if !c.Indoor(inside) {
		t.Fatal("building center should be indoor")
	}
	if c.Indoor(geom.Point{X: 250, Y: 120}) {
		t.Fatal("road junction should be outdoor")
	}
	// A path through a building crosses ≥2 walls.
	b := c.Buildings[0]
	a := geom.Point{X: b.Min.X - 5, Y: b.Center().Y}
	d := geom.Point{X: b.Max.X + 5, Y: b.Center().Y}
	if n := c.WallCrossings(a, d); n < 2 {
		t.Fatalf("pass-through wall crossings = %d, want ≥2", n)
	}
}

// Cells returns the cell list for a technology.
func (c *Campus) Cells(t radio.Tech) []*radio.Cell {
	if t == radio.NR {
		return c.NRCells
	}
	return c.LTECells
}

func TestCellsAccessor(t *testing.T) {
	c := New(1)
	if len(c.Cells(radio.NR)) != 13 || len(c.Cells(radio.LTE)) != 34 {
		t.Fatal("Cells accessor mismatch")
	}
	if len(c.NRSites) != 6 || len(c.LTESites) != 13 {
		t.Fatal("site lists mismatch")
	}
}
