// Package deploy builds the measured campus: a 0.5 km × 0.92 km urban
// university campus with 6 co-sited 5G gNBs (13 NR cells), 13 4G eNBs (34
// LTE cells), brick-and-concrete buildings, and the road network along
// which the paper's blanket survey walks (6.019 km of road in total).
//
// Sites, sector azimuths, and buildings are deterministic; shadow fading
// is a spatially correlated value-noise field keyed by (cell, position) so
// that repeated surveys of the same spot agree, as they would in the
// field.
package deploy

import (
	"math"

	"fivegsim/internal/geom"
	"fivegsim/internal/radio"
)

// Campus dimensions (meters): x spans 500 m east-west, y 920 m
// north-south, matching the paper's 0.5 km × 0.92 km region.
const (
	WidthM  = 500
	HeightM = 920
)

// Site is one base-station location carrying one technology's sectors.
type Site struct {
	Cells []*radio.Cell
	// CoSitedWith is the index of the companion site in the other
	// technology's site slice, at the same pole (−1 if none). Every gNB is
	// co-sited with an eNB under NSA, but not every eNB has a 5G companion
	// (§3.1).
	CoSitedWith int
}

// Campus is the full deployment. It implements radio.Obstruction.
type Campus struct {
	Bounds    geom.Rect
	Buildings []geom.Rect
	Roads     []geom.Segment

	NRSites  []Site
	LTESites []Site
	NRCells  []*radio.Cell
	LTECells []*radio.Cell

	seed int64

	// Cached best-server field maps, one per technology (see fieldmap.go).
	// Buckets fill lazily as BestServer queries touch them.
	nrField  *fieldMap
	lteField *fieldMap

	// Batched structure-of-arrays evaluation kernels over the cell lists
	// (see batch.go), plus the identity shortlists the all-cells paths
	// index them with.
	nrBatch  *radio.CellBatch
	lteBatch *radio.CellBatch
	nrAll    []int32
	lteAll   []int32
}

// siteSpec describes one deterministic site position and its sector plan.
type siteSpec struct {
	pos      geom.Point
	azimuths []float64
	pcis     []int
}

// The six gNB locations, spread over the campus like the paper's Fig. 2a
// (2-or-3-sector sites, 13 NR cells in total). PCI 72 is the cell used for
// the single-cell coverage study (Fig. 2b); PCIs 226 and 44 appear in the
// Fig. 4 handoff case study.
var nrSiteSpecs = []siteSpec{
	{pos: geom.Point{X: 120, Y: 130}, azimuths: []float64{0, 120, 240}, pcis: []int{60, 61, 62}},
	{pos: geom.Point{X: 390, Y: 255}, azimuths: []float64{45, 225}, pcis: []int{63, 64}},
	{pos: geom.Point{X: 120, Y: 420}, azimuths: []float64{90, 270}, pcis: []int{68, 69}},
	{pos: geom.Point{X: 340, Y: 500}, azimuths: []float64{30, 210}, pcis: []int{72, 73}},
	{pos: geom.Point{X: 120, Y: 720}, azimuths: []float64{135, 315}, pcis: []int{226, 44}},
	{pos: geom.Point{X: 390, Y: 830}, azimuths: []float64{60, 300}, pcis: []int{79, 80}},
}

// The 13 eNB locations: the first six are co-sited with the gNBs above;
// seven more fill the campus, giving 4G its denser grid (34 LTE cells).
var lteSiteSpecs = []siteSpec{
	{pos: geom.Point{X: 120, Y: 130}, azimuths: []float64{0, 120, 240}, pcis: []int{100, 101, 102}},
	{pos: geom.Point{X: 390, Y: 255}, azimuths: []float64{45, 165, 285}, pcis: []int{103, 104, 105}},
	{pos: geom.Point{X: 120, Y: 420}, azimuths: []float64{90, 210, 330}, pcis: []int{106, 107, 108}},
	{pos: geom.Point{X: 340, Y: 500}, azimuths: []float64{30, 150, 270}, pcis: []int{109, 110, 111}},
	{pos: geom.Point{X: 120, Y: 720}, azimuths: []float64{135, 255}, pcis: []int{441, 442}},
	{pos: geom.Point{X: 390, Y: 830}, azimuths: []float64{60, 180, 300}, pcis: []int{114, 115, 116}},
	{pos: geom.Point{X: 250, Y: 60}, azimuths: []float64{60, 300}, pcis: []int{117, 118}},
	{pos: geom.Point{X: 60, Y: 330}, azimuths: []float64{90, 270}, pcis: []int{120, 121}},
	{pos: geom.Point{X: 330, Y: 280}, azimuths: []float64{45, 165, 285}, pcis: []int{122, 123, 124}},
	{pos: geom.Point{X: 250, Y: 590}, azimuths: []float64{0, 120, 240}, pcis: []int{125, 126, 127}},
	{pos: geom.Point{X: 450, Y: 560}, azimuths: []float64{180, 300}, pcis: []int{128, 129}},
	{pos: geom.Point{X: 60, Y: 640}, azimuths: []float64{30, 270}, pcis: []int{130, 131}},
	{pos: geom.Point{X: 300, Y: 860}, azimuths: []float64{90, 210, 330}, pcis: []int{133, 134, 135}},
}

// buildings is the deterministic brick/concrete blocks layout ("surrounded
// by tall buildings", §2). Coordinates in meters.
var buildingSpecs = []geom.Rect{
	geom.NewRect(geom.Point{X: 30, Y: 40}, geom.Point{X: 180, Y: 110}),
	geom.NewRect(geom.Point{X: 300, Y: 30}, geom.Point{X: 360, Y: 95}),
	geom.NewRect(geom.Point{X: 420, Y: 40}, geom.Point{X: 480, Y: 100}),
	geom.NewRect(geom.Point{X: 200, Y: 140}, geom.Point{X: 290, Y: 230}),
	geom.NewRect(geom.Point{X: 330, Y: 170}, geom.Point{X: 440, Y: 240}),
	geom.NewRect(geom.Point{X: 40, Y: 230}, geom.Point{X: 120, Y: 300}),
	geom.NewRect(geom.Point{X: 150, Y: 320}, geom.Point{X: 260, Y: 400}),
	geom.NewRect(geom.Point{X: 300, Y: 330}, geom.Point{X: 390, Y: 410}),
	geom.NewRect(geom.Point{X: 40, Y: 400}, geom.Point{X: 110, Y: 460}),
	geom.NewRect(geom.Point{X: 200, Y: 440}, geom.Point{X: 300, Y: 520}),
	geom.NewRect(geom.Point{X: 360, Y: 470}, geom.Point{X: 430, Y: 540}),
	geom.NewRect(geom.Point{X: 60, Y: 530}, geom.Point{X: 170, Y: 580}),
	geom.NewRect(geom.Point{X: 300, Y: 560}, geom.Point{X: 400, Y: 640}),
	geom.NewRect(geom.Point{X: 100, Y: 620}, geom.Point{X: 200, Y: 700}),
	geom.NewRect(geom.Point{X: 230, Y: 650}, geom.Point{X: 310, Y: 720}),
	geom.NewRect(geom.Point{X: 400, Y: 740}, geom.Point{X: 470, Y: 820}),
	geom.NewRect(geom.Point{X: 180, Y: 760}, geom.Point{X: 280, Y: 830}),
	geom.NewRect(geom.Point{X: 40, Y: 850}, geom.Point{X: 150, Y: 900}),
	geom.NewRect(geom.Point{X: 330, Y: 550}, geom.Point{X: 380, Y: 555}),
	geom.NewRect(geom.Point{X: 430, Y: 200}, geom.Point{X: 490, Y: 290}),
}

// roadSpecs is the survey road graph: three north-south avenues, five
// east-west streets and a connecting diagonal, totalling ≈6.0 km (the
// paper traverses 6.019 km of road segments).
var roadSpecs = []geom.Segment{
	{A: geom.Point{X: 20, Y: 0}, B: geom.Point{X: 20, Y: 920}},
	{A: geom.Point{X: 250, Y: 0}, B: geom.Point{X: 250, Y: 920}},
	{A: geom.Point{X: 480, Y: 0}, B: geom.Point{X: 480, Y: 920}},
	{A: geom.Point{X: 0, Y: 120}, B: geom.Point{X: 500, Y: 120}},
	{A: geom.Point{X: 0, Y: 310}, B: geom.Point{X: 500, Y: 310}},
	{A: geom.Point{X: 0, Y: 500}, B: geom.Point{X: 500, Y: 500}},
	{A: geom.Point{X: 0, Y: 730}, B: geom.Point{X: 500, Y: 730}},
	{A: geom.Point{X: 0, Y: 910}, B: geom.Point{X: 500, Y: 910}},
	{A: geom.Point{X: 20, Y: 120}, B: geom.Point{X: 480, Y: 730}},
}

// New builds the campus. The seed keys the shadow-fading field; all
// geometry is deterministic.
func New(seed int64) *Campus {
	c := &Campus{
		Bounds:    geom.NewRect(geom.Point{}, geom.Point{X: WidthM, Y: HeightM}),
		Buildings: append([]geom.Rect(nil), buildingSpecs...),
		Roads:     append([]geom.Segment(nil), roadSpecs...),
		seed:      seed,
	}
	build := func(specs []siteSpec, tech radio.Tech, band radio.Band, load float64) ([]Site, []*radio.Cell) {
		sites := make([]Site, 0, len(specs))
		var cells []*radio.Cell
		for _, sp := range specs {
			s := Site{CoSitedWith: -1}
			for j, az := range sp.azimuths {
				cell := &radio.Cell{
					PCI:          sp.pcis[j],
					Tech:         tech,
					Band:         band,
					Pos:          sp.pos,
					Antenna:      radio.DefaultSector(az),
					EIRPPerREdBm: radio.DefaultEIRPPerRE(tech),
					Load:         load,
				}
				s.Cells = append(s.Cells, cell)
				cells = append(cells, cell)
			}
			sites = append(sites, s)
		}
		return sites, cells
	}
	// Daytime defaults: 4G cells carry real user load; 5G cells are almost
	// empty ("the limited number of 5G users", §4.1).
	c.NRSites, c.NRCells = build(nrSiteSpecs, radio.NR, radio.BandNR(), 0.15)
	c.LTESites, c.LTECells = build(lteSiteSpecs, radio.LTE, radio.BandLTE(), 0.85)
	for i := range c.NRSites {
		c.NRSites[i].CoSitedWith = i // first six eNBs share the gNB poles
		c.LTESites[i].CoSitedWith = i
	}
	// The batched paths evaluate a technology's cells on fixed stack
	// scratch (batch.go); New is the only constructor, so this is the
	// one place the cell counts can outgrow it.
	if len(c.NRCells) > batchMax || len(c.LTECells) > batchMax {
		panic("deploy: cell list exceeds the batch scratch")
	}
	c.nrBatch = radio.NewCellBatch(c.NRCells)
	c.lteBatch = radio.NewCellBatch(c.LTECells)
	c.nrAll = identityIdx(len(c.NRCells))
	c.lteAll = identityIdx(len(c.LTECells))
	c.nrField = newFieldMap(c, radio.NR)
	c.lteField = newFieldMap(c, radio.LTE)
	return c
}

// RoadLengthM returns the total length of the survey road graph.
func (c *Campus) RoadLengthM() float64 {
	var total float64
	for _, r := range c.Roads {
		total += r.Length()
	}
	return total
}

// RoadPoint maps a distance along the concatenated road graph to a
// point: the one walk behind the survey draw and the hand-off and
// population waypoints, each of which draws the distance on its own
// random stream. Summed segment lengths accumulate floating-point error, so a draw
// equal to the total length can land just past the final segment; such
// overruns clamp to the final road's endpoint instead of falling
// through to the zero point (the campus origin), which would silently
// skew the survey's corner statistics.
func (c *Campus) RoadPoint(at float64) geom.Point {
	for _, road := range c.Roads {
		l := road.Length()
		if at <= l {
			return road.At(at / l)
		}
		at -= l
	}
	return c.Roads[len(c.Roads)-1].B
}

// AreaKm2 returns the campus area in km².
func (c *Campus) AreaKm2() float64 {
	return c.Bounds.Width() * c.Bounds.Height() / 1e6
}

// GNBDensityPerKm2 returns 5G sites per km² (the paper reports
// 12.99/km²).
func (c *Campus) GNBDensityPerKm2() float64 {
	return float64(len(c.NRSites)) / c.AreaKm2()
}

// ENBDensityPerKm2 returns 4G sites per km² (the paper reports
// 28.14/km²).
func (c *Campus) ENBDensityPerKm2() float64 {
	return float64(len(c.LTESites)) / c.AreaKm2()
}

// WallCrossings implements radio.Obstruction.
func (c *Campus) WallCrossings(a, b geom.Point) int {
	seg := geom.Segment{A: a, B: b}
	n := 0
	for _, bld := range c.Buildings {
		n += bld.CrossingCount(seg)
	}
	return n
}

// Indoor implements radio.Obstruction.
func (c *Campus) Indoor(p geom.Point) bool {
	for _, bld := range c.Buildings {
		if bld.Contains(p) {
			return true
		}
	}
	return false
}

// CellByPCI looks up a cell by PCI across both technologies.
func (c *Campus) CellByPCI(pci int) *radio.Cell {
	for _, cell := range c.NRCells {
		if cell.PCI == pci {
			return cell
		}
	}
	for _, cell := range c.LTECells {
		if cell.PCI == pci {
			return cell
		}
	}
	return nil
}

// latticeGauss returns a deterministic ≈N(0,1) value at a lattice node via
// hashing and the sum-of-uniforms approximation. The FNV-1a hash is
// inlined byte by byte — bit-identical to hash/fnv over the same 32-byte
// key, but with no hasher allocation, since this sits under every RSRP
// evaluation.
func latticeGauss(seed int64, pci int, i, j int64) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x := uint64(offset64)
	for _, v := range [4]uint64{uint64(seed), uint64(pci), uint64(i), uint64(j)} {
		for k := 0; k < 8; k++ {
			x = (x ^ uint64(byte(v>>(8*k)))) * prime64
		}
	}
	// Twelve 5-bit uniforms summed: mean 6·(31/2), var ≈ 12·(32²−1)/12.
	var sum float64
	for k := 0; k < 12; k++ {
		sum += float64((x >> (5 * uint(k))) & 31)
	}
	mean := 12.0 * 31 / 2
	std := math.Sqrt(12 * (32*32 - 1) / 12.0)
	return (sum - mean) / std
}
