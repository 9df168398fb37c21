package deploy

import (
	"math"

	"fivegsim/internal/geom"
	"fivegsim/internal/radio"
)

// This file is the deployment side of the batched evaluation kernel: the
// campus owns one radio.CellBatch per technology plus the environment
// kernels (wall crossings, shadow fading) that feed it. It is the only
// production path for RSRP and KPI evaluation. The batch path amortizes
// everything that is per-point rather than per-cell — the indoor test,
// the shadow-lattice interpolation weights, the wall scan for co-sited
// sectors. The outputs are bit identical to the scalar chain
// (radio.RSRPAt + radio.MeasureCell per cell), which survives as the
// test oracle in oracle_test.go; internal/deploy's equivalence tests
// hold every public entry point to it across seeds.

// batchMax bounds the fixed stack scratch of the batched paths. The
// campus tops out at 34 LTE cells; New asserts both cell lists fit, and
// a field-map bucket word (fieldmap.go) holds at most 63.
const batchMax = 40

// evalScratch is the fixed stack scratch of one shortlist evaluation:
// idx holds a field-map shortlist expanded from its bucket word.
type evalScratch struct {
	idx, walls           [batchMax]int32
	shadow, rsrp, termMw [batchMax]float64
}

// eval fills the RSRP and load-scaled interference columns of shortlist
// idx at p and returns them as views into the scratch.
func (s *evalScratch) eval(c *Campus, b *radio.CellBatch, idx []int32, p geom.Point) (rsrp, termMw []float64) {
	n := len(idx)
	rsrp, termMw = s.rsrp[:n], s.termMw[:n]
	c.rsrpBatch(b, idx, p, s.walls[:n], s.shadow[:n], rsrp)
	b.TermsMwInto(termMw, idx, rsrp)
	return rsrp, termMw
}

func (c *Campus) batchFor(t radio.Tech) *radio.CellBatch {
	if t == radio.NR {
		return c.nrBatch
	}
	return c.lteBatch
}

// allIdx returns the identity shortlist over a technology's batch.
func (c *Campus) allIdx(t radio.Tech) []int32 {
	if t == radio.NR {
		return c.nrAll
	}
	return c.lteAll
}

// identityIdx builds [0, 1, …, n).
func identityIdx(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// rsrpBatch fills rsrp[k] with the shadowed RSRP of candidate idx[k] at
// p: the indoor test runs once for the point, the shadow kernel shares
// one set of lattice weights, and the wall kernel reuses the scan for
// co-sited sectors. Bit-identical to radio.RSRPAt per cell with the
// campus as obstruction and the value-noise shadow field.
func (c *Campus) rsrpBatch(b *radio.CellBatch, idx []int32, p geom.Point, walls []int32, shadow, rsrp []float64) {
	indoor := c.Indoor(p)
	c.wallsInto(walls, b, idx, p)
	c.shadowInto(shadow, b, idx, p)
	b.RSRPInto(rsrp, idx, p, walls, indoor, shadow)
}

// wallsInto fills dst[k] with the exterior-wall crossing count from cell
// idx[k]'s site to p. Sectors of one site share a mast, so consecutive
// candidates at the same position reuse the previous scan — the count is
// a pure function of (site, p).
func (c *Campus) wallsInto(dst []int32, b *radio.CellBatch, idx []int32, p geom.Point) {
	var lastPos geom.Point
	var lastN int32
	for k, ci := range idx {
		pos := b.Cell(int(ci)).Pos
		if k > 0 && pos == lastPos {
			dst[k] = lastN
			continue
		}
		n := int32(c.WallCrossings(pos, p))
		dst[k], lastPos, lastN = n, pos, n
	}
}

// shadowInto fills dst[k] with the correlated shadow fading (dB) of cell
// idx[k] at p — valueNoise with the bilinear weights and normalization
// hoisted out of the per-cell loop (they depend only on p; the four
// lattice hashes depend on the PCI and stay per-cell).
func (c *Campus) shadowInto(dst []float64, b *radio.CellBatch, idx []int32, p geom.Point) {
	const lattice = 25.0
	gx := math.Floor(p.X / lattice)
	gy := math.Floor(p.Y / lattice)
	fx := p.X/lattice - gx
	fy := p.Y/lattice - gy
	w00 := (1 - fx) * (1 - fy)
	w10 := fx * (1 - fy)
	w01 := (1 - fx) * fy
	w11 := fx * fy
	norm := math.Sqrt(w00*w00 + w10*w10 + w01*w01 + w11*w11)
	i0, j0 := int64(gx), int64(gy)
	for k, ci := range idx {
		i := int(ci)
		pci := b.PCI(i)
		v00 := latticeGauss(c.seed, pci, i0, j0)
		v10 := latticeGauss(c.seed, pci, i0+1, j0)
		v01 := latticeGauss(c.seed, pci, i0, j0+1)
		v11 := latticeGauss(c.seed, pci, i0+1, j0+1)
		v := v00*w00 + v10*w10 + v01*w01 + v11*w11
		if norm != 0 {
			v = v / norm
		}
		dst[k] = v * b.ShadowStd(i)
	}
}

// MeasureAllInto appends to dst (usually a retained buffer passed as
// buf[:0]) the KPI samples of every cell of a technology at p, strongest
// first, with inter-cell interference applied. The whole evaluation —
// environment, RSRP, interference terms, KPI chain, ordering — runs on
// fixed stack scratch, so a caller that reuses dst measures
// allocation-free; the guard test alongside TestBestServerAllocFree pins
// that.
func (c *Campus) MeasureAllInto(t radio.Tech, p geom.Point, dst []radio.Measurement) []radio.Measurement {
	return c.measureIdxInto(c.batchFor(t), c.allIdx(t), p, dst)
}

// MeasureAvailableInto is MeasureAllInto restricted to cells for which
// down returns false — the fault layer's coverage-hole view. A failed
// cell radiates nothing, so it is excluded both as a candidate server
// and as an interferer. A nil predicate is MeasureAllInto.
func (c *Campus) MeasureAvailableInto(t radio.Tech, p geom.Point, down func(pci int) bool, dst []radio.Measurement) []radio.Measurement {
	if down == nil {
		return c.MeasureAllInto(t, p, dst)
	}
	b := c.batchFor(t)
	var idxArr [batchMax]int32
	idx := idxArr[:0]
	for i := 0; i < b.Len(); i++ {
		if !down(b.PCI(i)) {
			idx = append(idx, int32(i))
		}
	}
	return c.measureIdxInto(b, idx, p, dst)
}

// measureIdxInto measures every shortlist entry at p and appends the
// samples to dst ordered by (RSRP desc, PCI asc) — a strict total order,
// since exact RSRP ties (possible at lattice nodes where two co-sited
// sectors see identical gain and shadow) break on PCI, so every
// best-server resolution agrees on the winner. It is realized as an
// insertion sort so the ordering pass allocates nothing.
func (c *Campus) measureIdxInto(b *radio.CellBatch, idx []int32, p geom.Point, dst []radio.Measurement) []radio.Measurement {
	var s evalScratch
	rsrp, termMw := s.eval(c, b, idx, p)
	base := len(dst)
	for k := range idx {
		dst = append(dst, b.MeasureOne(idx, rsrp, termMw, k))
	}
	ms := dst[base:]
	for i := 1; i < len(ms); i++ {
		m := ms[i]
		j := i - 1
		for j >= 0 && (ms[j].RSRPdBm < m.RSRPdBm ||
			(ms[j].RSRPdBm == m.RSRPdBm && ms[j].PCI > m.PCI)) {
			ms[j+1] = ms[j]
			j--
		}
		ms[j+1] = m
	}
	return dst
}
