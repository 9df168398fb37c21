// Package coverage implements the paper's §3 coverage study: the blanket
// walking survey over the campus road graph (Tables 1–2, Fig. 2a), the
// single-cell bit-rate contour (Fig. 2b), and the indoor/outdoor bit-rate
// gap experiment (Fig. 3).
package coverage

import (
	"math"
	"math/rand"
	"sort"

	"fivegsim/internal/deploy"
	"fivegsim/internal/geom"
	"fivegsim/internal/par"
	"fivegsim/internal/radio"
	"fivegsim/internal/rng"
	"fivegsim/internal/stats"
)

// Sample is one survey location with the best-server measurement of each
// technology, as the XCAL-equipped walk records both simultaneously.
type Sample struct {
	Pos geom.Point
	NR  radio.Measurement
	LTE radio.Measurement
}

// Survey is the outcome of a blanket road survey.
type Survey struct {
	Campus  *deploy.Campus
	Samples []Sample
}

// RSRPEdges are the paper's Table 2 buckets (dBm), from coverage hole to
// excellent signal.
var RSRPEdges = []float64{-140, -105, -90, -80, -70, -60, -40}

// surveyShardSize is the number of survey samples per RNG shard. The
// shard layout depends only on the sample count, so a Surveyor returns
// identical surveys for every worker count (see internal/par).
const surveyShardSize = 256

// drawSample picks one outdoor survey location on r and measures both
// technologies there, the way the XCAL-equipped walk records a row.
func drawSample(c *deploy.Campus, r *rand.Rand) Sample {
	total := c.RoadLengthM()
	// Pick an outdoor road position uniformly over total length; the
	// walking surveyor goes around buildings, so indoor draws are
	// rejected and retried.
	var p geom.Point
	for attempt := 0; attempt < 32; attempt++ {
		p = c.RoadPoint(rng.Uniform(r, 0, total))
		// Perpendicular jitter up to ±3 m, clamped to campus bounds.
		p.X += rng.Uniform(r, -3, 3)
		p.Y += rng.Uniform(r, -3, 3)
		p.X = math.Min(math.Max(p.X, 0), c.Bounds.Max.X)
		p.Y = math.Min(math.Max(p.Y, 0), c.Bounds.Max.Y)
		if !c.Indoor(p) {
			break
		}
	}
	sample := Sample{Pos: p}
	if m, ok := c.BestServer(radio.NR, p); ok {
		sample.NR = m
	}
	if m, ok := c.BestServer(radio.LTE, p); ok {
		sample.LTE = m
	}
	return sample
}

// rsrps extracts the per-sample best-server RSRP for a technology. If
// coSitedOnly is true, 4G service is restricted to the six eNBs that share
// poles with gNBs (the paper's "4G (6 eNBs)" column of Table 2).
func (s *Survey) rsrps(t radio.Tech, coSitedOnly bool) []float64 {
	if t == radio.NR || !coSitedOnly {
		out := make([]float64, len(s.Samples))
		for i, sm := range s.Samples {
			if t == radio.NR {
				out[i] = sm.NR.RSRPdBm
			} else {
				out[i] = sm.LTE.RSRPdBm
			}
		}
		return out
	}
	// Re-evaluate best server over co-sited eNBs only: the strongest
	// entry of the measurement restricted to them.
	coSited := map[int]bool{}
	for _, site := range s.Campus.LTESites {
		if site.CoSitedWith >= 0 {
			for _, cell := range site.Cells {
				coSited[cell.PCI] = true
			}
		}
	}
	down := func(pci int) bool { return !coSited[pci] }
	var buf [measureBufCap]radio.Measurement
	out := make([]float64, len(s.Samples))
	for i, sm := range s.Samples {
		out[i] = math.Inf(-1)
		if ms := s.Campus.MeasureAvailableInto(radio.LTE, sm.Pos, down, buf[:0]); len(ms) > 0 {
			out[i] = ms[0].RSRPdBm
		}
	}
	return out
}

// RSRPSummary returns the Table 1 "RSRP mean ± std" row for a technology.
func (s *Survey) RSRPSummary(t radio.Tech) stats.Summary {
	return stats.Summarize(s.rsrps(t, false))
}

// RSRPDistribution returns the Table 2 histogram over RSRPEdges, ordered
// from strongest bucket to coverage hole like the paper's table
// ([-60,-40) first). coSitedOnly selects the "4G (6 eNBs)" column.
func (s *Survey) RSRPDistribution(t radio.Tech, coSitedOnly bool) []stats.Bin {
	bins := stats.Histogram(s.rsrps(t, coSitedOnly), RSRPEdges)
	// Reverse: strongest first.
	out := make([]stats.Bin, len(bins))
	for i := range bins {
		out[i] = bins[len(bins)-1-i]
	}
	return out
}

// HoleFraction returns the share of samples in the coverage-hole bucket
// (RSRP < −105 dBm). The paper: 8.07 % for 5G, 1.77 % for 4G, 3.84 % for
// the co-sited-only 4G subset.
func (s *Survey) HoleFraction(t radio.Tech, coSitedOnly bool) float64 {
	vals := s.rsrps(t, coSitedOnly)
	holes := 0
	for _, v := range vals {
		if v < radio.ServiceThresholdDBm {
			holes++
		}
	}
	if len(vals) == 0 {
		return 0
	}
	return float64(holes) / float64(len(vals))
}

// GridCell is one map pixel of the Fig. 2 style RSRP/bit-rate maps.
type GridCell struct {
	Center     geom.Point
	RSRPdBm    float64
	BitRateBps float64
	Indoor     bool
}

// gridShardRows is the number of raster rows per shard. Fixed row tiles
// keep the shard layout a pure function of the grid height, per the
// internal/par contract (though the raster draws no randomness, so any
// tiling would be worker-invariant anyway).
const gridShardRows = 4

// GridMap rasterizes best-server coverage over the campus at the given
// resolution (meters per pixel), with the raster rows tiled across up to
// workers goroutines (0 = GOMAXPROCS). Bit-rate assumes a full PRB
// grant, like the paper's locked single-UE measurements. Every pixel is
// a pure function of its coordinates and each shard writes only its own
// rows, so the map is identical for every worker count.
func GridMap(c *deploy.Campus, t radio.Tech, resolution float64, workers int) [][]GridCell {
	band := radio.BandNR()
	if t == radio.LTE {
		band = radio.BandLTE()
	}
	nx := int(c.Bounds.Width()/resolution) + 1
	ny := int(c.Bounds.Height()/resolution) + 1
	grid := make([][]GridCell, ny)
	par.Do(workers, par.ShardSize(ny, gridShardRows), func(sh par.Range) {
		for j := sh.Lo; j < sh.Hi; j++ {
			row := make([]GridCell, nx)
			for i := 0; i < nx; i++ {
				p := geom.Point{X: (float64(i) + 0.5) * resolution, Y: (float64(j) + 0.5) * resolution}
				gc := GridCell{Center: p, RSRPdBm: math.Inf(-1), Indoor: c.Indoor(p)}
				if m, ok := c.BestServer(t, p); ok {
					gc.RSRPdBm = m.RSRPdBm
					if m.Usable() {
						gc.BitRateBps = radio.DLBitRate(m, band, band.PRBs)
					}
				}
				row[i] = gc
			}
			grid[j] = row
		}
	})
	return grid
}

// measureBufCap sizes the stack buffers the all-cells measurements
// append into; the LTE layer tops out at 34 cells.
const measureBufCap = 40

// CellLockedMeasure measures a specific cell of c (frequency-locked, as
// the paper does for PCI 72 in Fig. 2b) at p, with interference from the
// other same-tech cells: its entry of the all-cells measurement.
func CellLockedMeasure(c *deploy.Campus, cell *radio.Cell, p geom.Point) radio.Measurement {
	var buf [measureBufCap]radio.Measurement
	for _, m := range c.MeasureAllInto(cell.Tech, p, buf[:0]) {
		if m.PCI == cell.PCI {
			return m
		}
	}
	return radio.Measurement{}
}

// UsableRadius walks a line-of-sight ray from the cell along its boresight
// and returns the distance at which the locked link first becomes
// unusable — the experiment the paper performs toward location A (§3.2),
// finding ≈230 m for 5G vs ≈520 m for 4G. The link is evaluated in the
// open field: a one-cell batch with no walls and no shadow fading. The
// median over small azimuth perturbations inside the FoV smooths
// shadowing artifacts.
func UsableRadius(c *deploy.Campus, cell *radio.Cell) float64 {
	b := radio.NewCellBatch([]*radio.Cell{cell})
	var idx, walls [1]int32
	var shadow, rsrp [1]float64
	var radii []float64
	for _, off := range []float64{-20, -10, 0, 10, 20} {
		az := (cell.Antenna.BoresightDeg + off) * math.Pi / 180
		dir := geom.Point{X: math.Cos(az), Y: math.Sin(az)}
		d := 1.0
		for ; d < 2000; d += 2 {
			b.RSRPInto(rsrp[:], idx[:], cell.Pos.Add(dir.Scale(d)), walls[:], false, shadow[:])
			if rsrp[0] < radio.ServiceThresholdDBm {
				break
			}
		}
		radii = append(radii, d)
	}
	sort.Float64s(radii)
	return radii[len(radii)/2]
}

// IndoorOutdoorGap runs the Fig. 3 experiment: paired samples immediately
// inside and outside building walls near the serving site, at roughly the
// paper's 100 m range. It returns the per-pair fractional bit-rate drop
// (0.5 = half the outdoor bit-rate lost when stepping indoors).
func IndoorOutdoorGap(c *deploy.Campus, t radio.Tech, seed int64) []float64 {
	r := rng.New(seed).Stream("coverage.indoor")
	band := radio.BandNR()
	if t == radio.LTE {
		band = radio.BandLTE()
	}
	var drops []float64
	for _, bld := range c.Buildings {
		// Four probe pairs per building, one per wall.
		walls := []struct{ out, in geom.Point }{
			{geom.Point{X: bld.Min.X - 2, Y: bld.Center().Y}, geom.Point{X: bld.Min.X + 4, Y: bld.Center().Y}},
			{geom.Point{X: bld.Max.X + 2, Y: bld.Center().Y}, geom.Point{X: bld.Max.X - 4, Y: bld.Center().Y}},
			{geom.Point{X: bld.Center().X, Y: bld.Min.Y - 2}, geom.Point{X: bld.Center().X, Y: bld.Min.Y + 4}},
			{geom.Point{X: bld.Center().X, Y: bld.Max.Y + 2}, geom.Point{X: bld.Center().X, Y: bld.Max.Y - 4}},
		}
		for _, w := range walls {
			jitter := geom.Point{X: rng.Uniform(r, -1, 1), Y: rng.Uniform(r, -1, 1)}
			out, in := w.out.Add(jitter), w.in.Add(jitter)
			if c.Indoor(out) || !c.Indoor(in) {
				continue
			}
			mOut, ok := c.BestServer(t, out)
			if !ok || !mOut.Usable() {
				continue
			}
			mIn := mOut
			// Indoors the UE stays on the same serving cell while the
			// signal degrades (re-measure that cell through the wall).
			if cell := c.CellByPCI(mOut.PCI); cell != nil {
				mIn = CellLockedMeasure(c, cell, in)
			}
			rateOut := radio.DLBitRate(mOut, band, band.PRBs)
			rateIn := 0.0
			if mIn.Usable() {
				rateIn = radio.DLBitRate(mIn, band, band.PRBs)
			}
			if rateOut <= 0 {
				continue
			}
			drop := 1 - rateIn/rateOut
			if drop < 0 {
				drop = 0
			}
			drops = append(drops, drop)
		}
	}
	return drops
}

// ContourRing is one distance band of the Fig. 2b bit-rate contour around
// a frequency-locked cell.
type ContourRing struct {
	LoM, HiM   float64
	MeanBps    float64
	UsableFrac float64
	N          int
}

// CellContour samples the locked cell on rings of the given width out to
// maxM, the Fig. 2b methodology (the paper grids the gNB's neighbourhood
// into 20 m² cells and samples 154 locations).
func CellContour(c *deploy.Campus, cell *radio.Cell, ringM, maxM float64, seed int64) []ContourRing {
	r := rng.New(seed).Stream("coverage.contour")
	band := radio.BandNR()
	if cell.Tech == radio.LTE {
		band = radio.BandLTE()
	}
	var rings []ContourRing
	for lo := 0.0; lo < maxM; lo += ringM {
		ring := ContourRing{LoM: lo, HiM: lo + ringM}
		var sum float64
		usable := 0
		for k := 0; k < 24; k++ {
			d := rng.Uniform(r, math.Max(lo, 1), lo+ringM)
			az := rng.Uniform(r, 0, 2*math.Pi)
			p := cell.Pos.Add(geom.Point{X: d * math.Cos(az), Y: d * math.Sin(az)})
			if !c.Bounds.Contains(p) {
				continue
			}
			m := CellLockedMeasure(c, cell, p)
			ring.N++
			if m.Usable() {
				usable++
				sum += radio.DLBitRate(m, band, band.PRBs)
			}
		}
		if ring.N > 0 {
			ring.MeanBps = sum / float64(ring.N)
			ring.UsableFrac = float64(usable) / float64(ring.N)
		}
		rings = append(rings, ring)
	}
	return rings
}
