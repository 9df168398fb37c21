package deploy

import (
	"math"
	"sort"

	"fivegsim/internal/geom"
	"fivegsim/internal/radio"
)

// The scalar oracle: the per-call reference chain the batched kernels
// are held to bit for bit. It evaluates every cell on its own — the
// value-noise shadow field, one radio.RSRPAt per cell, one
// radio.MeasureCell per serving candidate — with nothing hoisted or
// shared between cells. Production code never calls it.

// valueNoise returns a smooth pseudo-random field in units of standard
// deviations: Gaussian-ish values on a 25 m lattice, bilinearly
// interpolated and renormalized so the pointwise variance stays ≈1.
func valueNoise(seed int64, pci int, p geom.Point) float64 {
	const lattice = 25.0
	gx := math.Floor(p.X / lattice)
	gy := math.Floor(p.Y / lattice)
	fx := p.X/lattice - gx
	fy := p.Y/lattice - gy
	v00 := latticeGauss(seed, pci, int64(gx), int64(gy))
	v10 := latticeGauss(seed, pci, int64(gx)+1, int64(gy))
	v01 := latticeGauss(seed, pci, int64(gx), int64(gy)+1)
	v11 := latticeGauss(seed, pci, int64(gx)+1, int64(gy)+1)
	w00 := (1 - fx) * (1 - fy)
	w10 := fx * (1 - fy)
	w01 := (1 - fx) * fy
	w11 := fx * fy
	v := v00*w00 + v10*w10 + v01*w01 + v11*w11
	norm := math.Sqrt(w00*w00 + w10*w10 + w01*w01 + w11*w11)
	if norm == 0 {
		return v
	}
	return v / norm
}

// ShadowDB returns the spatially correlated shadow fading (dB) for a cell
// at a point: a bilinear value-noise field with ≈25 m correlation length,
// deterministic in (seed, PCI, position).
func (c *Campus) ShadowDB(cell *radio.Cell, p geom.Point) float64 {
	std := radio.PropagationFor(cell.Tech).ShadowStdDB
	return valueNoise(c.seed, cell.PCI, p) * std
}

// RSRPAt returns the shadowed RSRP of a cell at p.
func (c *Campus) RSRPAt(cell *radio.Cell, p geom.Point) float64 {
	return radio.RSRPAt(cell, p, c, c.ShadowDB(cell, p))
}

// MeasureAll returns the KPI samples for every cell of a technology at p,
// strongest first, with inter-cell interference applied.
func (c *Campus) MeasureAll(t radio.Tech, p geom.Point) []radio.Measurement {
	return c.measureScalar(c.Cells(t), p)
}

// BestServerExhaustive is the reference for BestServer: a full
// measurement of every cell.
func (c *Campus) BestServerExhaustive(t radio.Tech, p geom.Point) (radio.Measurement, bool) {
	ms := c.MeasureAll(t, p)
	if len(ms) == 0 {
		return radio.Measurement{}, false
	}
	return ms[0], true
}

// measureScalar measures cells at p one RSRPAt and one MeasureCell at a
// time, sorted by (RSRP desc, PCI asc).
func (c *Campus) measureScalar(cells []*radio.Cell, p geom.Point) []radio.Measurement {
	rsrps := make([]float64, len(cells))
	terms := make([]radio.InterferenceTerm, len(cells))
	for i, cell := range cells {
		rsrps[i] = c.RSRPAt(cell, p)
		terms[i] = radio.InterferenceTerm{PCI: cell.PCI, RSRPdBm: rsrps[i], Load: cell.Load}
	}
	ms := make([]radio.Measurement, len(cells))
	for i, cell := range cells {
		ms[i] = radio.MeasureCell(cell, rsrps[i], terms)
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].RSRPdBm != ms[j].RSRPdBm {
			return ms[i].RSRPdBm > ms[j].RSRPdBm
		}
		return ms[i].PCI < ms[j].PCI
	})
	return ms
}

// sameBits reports whether two measurements agree field for field, with
// the float fields compared by bit pattern.
func sameBits(a, b radio.Measurement) bool {
	return a.PCI == b.PCI && a.Tech == b.Tech && a.CQI == b.CQI && a.MCS == b.MCS &&
		math.Float64bits(a.RSRPdBm) == math.Float64bits(b.RSRPdBm) &&
		math.Float64bits(a.RSRQdB) == math.Float64bits(b.RSRQdB) &&
		math.Float64bits(a.SINRdB) == math.Float64bits(b.SINRdB) &&
		math.Float64bits(a.SE) == math.Float64bits(b.SE)
}
