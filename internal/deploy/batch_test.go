package deploy

import (
	"math"
	"math/rand"
	"testing"

	"fivegsim/internal/geom"
	"fivegsim/internal/radio"
)

// testPoints draws points across the campus, making sure the set covers
// both indoor and outdoor (the two PathLoss branches the batch kernel
// must reproduce); the campus has ~40% building cover so 60 draws always
// hit both in practice, but the test asserts it rather than hoping.
func testPoints(t *testing.T, c *Campus, r *rand.Rand, n int) []geom.Point {
	t.Helper()
	pts := make([]geom.Point, 0, n)
	indoor, outdoor := false, false
	for i := 0; i < n; i++ {
		p := geom.Point{
			X: c.Bounds.Min.X + r.Float64()*c.Bounds.Width(),
			Y: c.Bounds.Min.Y + r.Float64()*c.Bounds.Height(),
		}
		if c.Indoor(p) {
			indoor = true
		} else {
			outdoor = true
		}
		pts = append(pts, p)
	}
	if !indoor || !outdoor {
		t.Fatalf("point set does not cover both indoor and outdoor (indoor=%v outdoor=%v)", indoor, outdoor)
	}
	return pts
}

// TestMeasureAllIntoMatchesScalar holds the batched measurement path to
// the scalar reference bit for bit: same RSRP, same interference, same
// KPI chain, same (RSRP desc, PCI asc) order — for both technologies,
// across seeds, indoor and out.
func TestMeasureAllIntoMatchesScalar(t *testing.T) {
	for _, seed := range []int64{1, 42, 7} {
		c := New(seed)
		r := rand.New(rand.NewSource(seed * 1000))
		buf := make([]radio.Measurement, 0, batchMax)
		for _, p := range testPoints(t, c, r, 60) {
			for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
				got := c.MeasureAllInto(tech, p, buf[:0])
				want := c.measureScalar(c.Cells(tech), p)
				if len(got) != len(want) {
					t.Fatalf("seed %d %v at %+v: %d samples, want %d", seed, tech, p, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d %v at %+v sample %d:\n batch  %+v\n scalar %+v",
							seed, tech, p, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMeasureAvailableIntoMatchesScalar holds the fault-filtered batch
// path to a scalar reference built the long way: filter the cell list,
// then run the scalar measurement over the survivors. Downed cells must
// vanish both as candidates and as interferers.
func TestMeasureAvailableIntoMatchesScalar(t *testing.T) {
	c := New(42)
	r := rand.New(rand.NewSource(9))
	buf := make([]radio.Measurement, 0, batchMax)
	for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
		cells := c.Cells(tech)
		for trial := 0; trial < 20; trial++ {
			downed := map[int]bool{}
			for _, cell := range cells {
				if r.Float64() < 0.3 {
					downed[cell.PCI] = true
				}
			}
			down := func(pci int) bool { return downed[pci] }
			p := geom.Point{X: r.Float64() * c.Bounds.Width(), Y: r.Float64() * c.Bounds.Height()}
			got := c.MeasureAvailableInto(tech, p, down, buf[:0])
			live := make([]*radio.Cell, 0, len(cells))
			for _, cell := range cells {
				if !downed[cell.PCI] {
					live = append(live, cell)
				}
			}
			want := c.measureScalar(live, p)
			if len(got) != len(want) {
				t.Fatalf("%v trial %d: %d samples, want %d", tech, trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v trial %d sample %d:\n batch  %+v\n scalar %+v", tech, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMeasureIntoAllocFree pins the zero-allocation contract of the Into
// variants: with a retained buffer, measuring every cell (or every live
// cell) allocates nothing. This is the guarantee the survey and walker
// hot loops are built on.
func TestMeasureIntoAllocFree(t *testing.T) {
	c := New(1)
	pts := []geom.Point{{X: 120, Y: 130}, {X: 250, Y: 500}, {X: 480, Y: 910}, {X: 20, Y: 300}}
	buf := make([]radio.Measurement, 0, batchMax)
	downPCI := c.Cells(radio.NR)[0].PCI
	down := func(pci int) bool { return pci == downPCI }
	avg := testing.AllocsPerRun(50, func() {
		for _, p := range pts {
			buf = c.MeasureAllInto(radio.NR, p, buf[:0])
			buf = c.MeasureAllInto(radio.LTE, p, buf[:0])
			buf = c.MeasureAvailableInto(radio.NR, p, down, buf[:0])
		}
	})
	if avg != 0 {
		t.Fatalf("Into measurement paths allocate: %.2f allocs/run", avg)
	}
}

// BenchmarkMeasureAllInto prices the batched measurement kernel itself:
// one op is a full MeasureAllInto of both technologies at 64 fixed
// points — the RSRP → interference → KPI chain over every cell, with no
// sampling randomness around it. It reads 0 allocs/op;
// TestMeasureIntoAllocFree enforces that.
func BenchmarkMeasureAllInto(b *testing.B) {
	b.ReportAllocs()
	c := New(1)
	pts := make([]geom.Point, 64)
	for i := range pts {
		pts[i] = geom.Point{
			X: c.Bounds.Width() * (0.5 + float64(i%8)) / 8,
			Y: c.Bounds.Height() * (0.5 + float64(i/8)) / 8,
		}
	}
	buf := make([]radio.Measurement, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pts {
			buf = c.MeasureAllInto(radio.NR, p, buf[:0])
			buf = c.MeasureAllInto(radio.LTE, p, buf[:0])
		}
	}
}

// TestNewFitsBatchScratch: New is the only constructor of a Campus, and
// every batched path evaluates a technology's cells on fixed batchMax
// scratch, so both cell lists must fit it.
func TestNewFitsBatchScratch(t *testing.T) {
	c := New(1)
	for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
		if n := len(c.Cells(tech)); n > batchMax {
			t.Fatalf("%v: %d cells exceed batchMax %d", tech, n, batchMax)
		}
	}
}

// TestSingleCellQueryMatchesScalar: a query restricted to one cell
// yields that cell's RSRP exactly as the scalar RSRPAt computes it. The
// coverage package's oracles build on single-cell queries, so this pins
// them to the scalar chain too.
func TestSingleCellQueryMatchesScalar(t *testing.T) {
	for _, seed := range []int64{1, 42, 7} {
		c := New(seed)
		r := rand.New(rand.NewSource(seed * 1000))
		buf := make([]radio.Measurement, 0, 1)
		for _, p := range testPoints(t, c, r, 30) {
			for _, tech := range []radio.Tech{radio.NR, radio.LTE} {
				for _, cell := range c.Cells(tech) {
					only := func(pci int) bool { return pci != cell.PCI }
					got := c.MeasureAvailableInto(tech, p, only, buf[:0])
					if len(got) != 1 || math.Float64bits(got[0].RSRPdBm) != math.Float64bits(c.RSRPAt(cell, p)) {
						t.Fatalf("seed %d PCI %d at %+v: single-cell query %+v, scalar RSRP %v",
							seed, cell.PCI, p, got, c.RSRPAt(cell, p))
					}
				}
			}
		}
	}
}
