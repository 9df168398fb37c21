package coverage

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"fivegsim/internal/deploy"
	"fivegsim/internal/geom"
	"fivegsim/internal/radio"
)

// The scalar oracles below are the pre-batch implementations of the
// coverage measurements: per-cell RSRP values composed with
// radio.MeasureCell, or radio.RSRPAt in the open field. Each per-cell
// shadowed RSRP comes from a single-cell deploy query, which
// deploy.TestSingleCellQueryMatchesScalar holds to the scalar RSRPAt
// chain bit for bit.

var oracleSeeds = []int64{1, 42, 7}

// cellRSRP is the shadowed RSRP of one campus cell at p.
func cellRSRP(c *deploy.Campus, cell *radio.Cell, p geom.Point) float64 {
	only := func(pci int) bool { return pci != cell.PCI }
	return c.MeasureAvailableInto(cell.Tech, p, only, nil)[0].RSRPdBm
}

// scalarCellLocked is CellLockedMeasure the scalar way: the locked
// cell's RSRP against interference terms from every other same-tech
// cell, in cell order.
func scalarCellLocked(c *deploy.Campus, cell *radio.Cell, p geom.Point) radio.Measurement {
	var terms []radio.InterferenceTerm
	var servingRSRP float64
	cells := c.LTECells
	if cell.Tech == radio.NR {
		cells = c.NRCells
	}
	for _, other := range cells {
		v := cellRSRP(c, other, p)
		if other.PCI == cell.PCI {
			servingRSRP = v
			continue
		}
		terms = append(terms, radio.InterferenceTerm{PCI: other.PCI, RSRPdBm: v, Load: other.Load})
	}
	return radio.MeasureCell(cell, p, servingRSRP, terms)
}

// scalarUsableRadius is UsableRadius over radio.RSRPAt in the open field.
func scalarUsableRadius(cell *radio.Cell) float64 {
	var radii []float64
	for _, off := range []float64{-20, -10, 0, 10, 20} {
		az := (cell.Antenna.BoresightDeg + off) * math.Pi / 180
		dir := geom.Point{X: math.Cos(az), Y: math.Sin(az)}
		d := 1.0
		for ; d < 2000; d += 2 {
			if radio.RSRPAt(cell, cell.Pos.Add(dir.Scale(d)), radio.OpenField{}, 0) < radio.ServiceThresholdDBm {
				break
			}
		}
		radii = append(radii, d)
	}
	sort.Float64s(radii)
	return radii[len(radii)/2]
}

// oraclePoints draws campus points and asserts the set covers both
// indoor and outdoor positions.
func oraclePoints(t *testing.T, c *deploy.Campus, seed int64, n int) []geom.Point {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	indoor := 0
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * c.Bounds.Width(), Y: r.Float64() * c.Bounds.Height()}
		if c.Indoor(pts[i]) {
			indoor++
		}
	}
	if indoor == 0 || indoor == n {
		t.Fatalf("seed %d: %d of %d points indoors; want both kinds", seed, indoor, n)
	}
	return pts
}

func sameBits(a, b radio.Measurement) bool {
	return a.PCI == b.PCI && a.Tech == b.Tech && a.CQI == b.CQI && a.MCS == b.MCS &&
		math.Float64bits(a.RSRPdBm) == math.Float64bits(b.RSRPdBm) &&
		math.Float64bits(a.RSRQdB) == math.Float64bits(b.RSRQdB) &&
		math.Float64bits(a.SINRdB) == math.Float64bits(b.SINRdB) &&
		math.Float64bits(a.SE) == math.Float64bits(b.SE) &&
		math.Float64bits(a.DistanceM) == math.Float64bits(b.DistanceM)
}

func TestCellLockedMeasureMatchesScalar(t *testing.T) {
	for _, seed := range oracleSeeds {
		c := deploy.New(seed)
		for _, p := range oraclePoints(t, c, seed, 25) {
			for _, cell := range append(append([]*radio.Cell{}, c.NRCells...), c.LTECells...) {
				got, want := CellLockedMeasure(c, cell, p), scalarCellLocked(c, cell, p)
				if !sameBits(got, want) {
					t.Fatalf("seed %d PCI %d at %+v:\n batch  %+v\n scalar %+v", seed, cell.PCI, p, got, want)
				}
			}
		}
	}
}

func TestCoSitedRSRPMatchesScalar(t *testing.T) {
	for _, seed := range oracleSeeds {
		c := deploy.New(seed)
		s := &Survey{Campus: c}
		for _, p := range oraclePoints(t, c, seed, 200) {
			s.Samples = append(s.Samples, Sample{Pos: p})
		}
		got := s.rsrps(radio.LTE, true)
		for i, sm := range s.Samples {
			want := math.Inf(-1)
			for _, site := range c.LTESites {
				if site.CoSitedWith < 0 {
					continue
				}
				for _, cell := range site.Cells {
					if v := cellRSRP(c, cell, sm.Pos); v > want {
						want = v
					}
				}
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("seed %d at %+v: co-sited RSRP %v, scalar %v", seed, sm.Pos, got[i], want)
			}
		}
	}
}

func TestUsableRadiusMatchesScalar(t *testing.T) {
	for _, seed := range oracleSeeds {
		c := deploy.New(seed)
		for _, cell := range append(append([]*radio.Cell{}, c.NRCells...), c.LTECells...) {
			want := scalarUsableRadius(cell)
			if got := UsableRadius(c, cell); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d PCI %d: usable radius %v, scalar %v", seed, cell.PCI, got, want)
			}
		}
	}
}
