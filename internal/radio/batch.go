package radio

import (
	"math"

	"fivegsim/internal/geom"
)

// CellBatch is the structure-of-arrays view of a fixed cell list, built
// once per deployment and shared by every hot evaluation path (survey
// sampling, field-map builds, population attach). Each per-cell constant
// the scalar path re-derives on every call — the PropagationFor switch,
// the 10·n products, the per-band thermal noise power — is precomputed
// into a flat slice, so the kernels below run as straight-line float
// loops over candidate indices with no branches on Tech and no math.Pow
// off the fast path.
//
// Every kernel reproduces the scalar reference (RSRPAt, MeasureCell)
// bit for bit: precomputation only hoists subexpressions the scalar
// code already evaluates as a unit (10·Exponent, WallLossDB+IndoorExtra,
// dbmToMw(noisePerREdBm(band))), never re-associates a sum. The
// equivalence is pinned by TestBatchRSRPMatchesScalar and
// TestBatchMeasureMatchesScalar, not assumed.
//
// Load is deliberately NOT cached: population load coupling mutates
// Cell.Load between ticks, so interference terms read it live through
// the retained cell pointers.
type CellBatch struct {
	cells []*Cell
	pcis  []int

	posX, posY []float64
	eirp       []float64

	// Antenna pattern: boresight, 3 dB beamwidth, peak gain, front-to-back.
	bsDeg, bwDeg, maxGain, f2b []float64

	// Propagation: intercept, 10·n near slope, breakpoint, 10·n₂ far
	// slope, per-wall diffraction, diffraction cap, and the combined
	// indoor penetration (WallLossDB + IndoorExtra, the unit PathLoss
	// adds when ending indoors).
	pl0, exp10, breakM, exp210 []float64
	blockDB, blockCap, indoor  []float64

	shadowStd []float64
	noiseMw   []float64
}

// NewCellBatch precomputes the batch for cells. The slice is retained
// (not copied): batch index i is cells[i] forever.
func NewCellBatch(cells []*Cell) *CellBatch {
	n := len(cells)
	b := &CellBatch{
		cells: cells,
		pcis:  make([]int, n),
		posX:  make([]float64, n), posY: make([]float64, n),
		eirp:  make([]float64, n),
		bsDeg: make([]float64, n), bwDeg: make([]float64, n),
		maxGain: make([]float64, n), f2b: make([]float64, n),
		pl0: make([]float64, n), exp10: make([]float64, n),
		breakM: make([]float64, n), exp210: make([]float64, n),
		blockDB: make([]float64, n), blockCap: make([]float64, n),
		indoor:    make([]float64, n),
		shadowStd: make([]float64, n),
		noiseMw:   make([]float64, n),
	}
	for i, c := range cells {
		prop := PropagationFor(c.Tech)
		b.pcis[i] = c.PCI
		b.posX[i], b.posY[i] = c.Pos.X, c.Pos.Y
		b.eirp[i] = c.EIRPPerREdBm
		b.bsDeg[i] = c.Antenna.BoresightDeg
		b.bwDeg[i] = c.Antenna.BeamwidthDeg
		b.maxGain[i] = c.Antenna.MaxGainDBi
		b.f2b[i] = c.Antenna.FrontToBack
		b.pl0[i] = prop.PL0
		b.exp10[i] = 10 * prop.Exponent
		b.breakM[i] = prop.BreakM
		b.exp210[i] = 10 * prop.Exponent2
		b.blockDB[i] = prop.BlockDB
		b.blockCap[i] = prop.BlockCapDB
		b.indoor[i] = prop.WallLossDB + prop.IndoorExtra
		b.shadowStd[i] = prop.ShadowStdDB
		b.noiseMw[i] = dbmToMw(noisePerREdBm(c.Band))
	}
	return b
}

// Len returns the number of cells in the batch.
func (b *CellBatch) Len() int { return len(b.cells) }

// Cell returns the cell at batch index i.
func (b *CellBatch) Cell(i int) *Cell { return b.cells[i] }

// PCI returns the PCI at batch index i.
func (b *CellBatch) PCI(i int) int { return b.pcis[i] }

// ShadowStd returns the shadow-fading standard deviation (dB) at batch
// index i — the deployment layer's shadow-field kernel scales its unit
// value noise by this.
func (b *CellBatch) ShadowStd(i int) float64 { return b.shadowStd[i] }

// RSRPInto evaluates the shortlist idx at point p, writing the RSRP of
// cell idx[k] to dst[k]. The environment inputs come from the caller,
// who can amortize them across the shortlist: walls[k] is the
// exterior-wall crossing count on the path from cell idx[k] to p,
// indoor whether p itself is inside a building (one test per point, not
// one per cell), and shadow[k] the correlated shadow-fading value (dB).
//
// Bit-identical to RSRPAt with the same environment: every operation
// appears in the same order and association as the scalar chain
// PropagationFor → PathLoss → GainDBi → sum.
func (b *CellBatch) RSRPInto(dst []float64, idx []int32, p geom.Point, walls []int32, indoor bool, shadow []float64) {
	for k, ci := range idx {
		i := int(ci)
		dx, dy := p.X-b.posX[i], p.Y-b.posY[i]
		d := math.Hypot(dx, dy)

		// Sector gain (SectorAntenna.GainDBi inlined on the precomputed
		// pattern columns; 12·q·q associates as the scalar's
		// 12·(θ/bw)·(θ/bw)).
		az := math.Atan2(dy, dx) * 180 / math.Pi
		if az < 0 {
			az += 360
		}
		theta := geom.AngleDiff(az, b.bsDeg[i])
		q := theta / b.bwDeg[i]
		atten := 12 * q * q
		if atten > b.f2b[i] {
			atten = b.f2b[i]
		}

		// Path loss (Propagation.PathLoss inlined; exp10/exp210 hold the
		// scalar's 10·Exponent products, indoor[i] its WallLossDB +
		// IndoorExtra unit).
		dd := d
		if dd < 1 {
			dd = 1
		}
		pl := b.pl0[i] + b.exp10[i]*math.Log10(math.Min(dd, b.breakM[i]))
		if dd > b.breakM[i] {
			pl += b.exp210[i] * math.Log10(dd/b.breakM[i])
		}
		bw := int(walls[k])
		if indoor && bw > 0 {
			bw-- // the final wall is charged as penetration instead
		}
		block := float64(bw) * b.blockDB[i]
		if block > b.blockCap[i] {
			block = b.blockCap[i]
		}
		pl += block
		if indoor {
			pl += b.indoor[i]
		}

		dst[k] = b.eirp[i] + (b.maxGain[i] - atten) - pl + shadow[k]
	}
}

// TermsMwInto converts the shortlist's RSRP values to load-scaled linear
// interference terms: dst[k] = mW(rsrp[k]) · clamp01(load of cell
// idx[k]), the per-neighbor quantity MeasureCell accumulates. Computing
// the terms once per point instead of once per (serving, neighbor) pair
// takes the all-cells measurement from O(n²) math.Pow calls to O(n);
// summing the precomputed terms in the same neighbor order keeps the
// totals bit-identical. Load reads live through the cell pointers.
func (b *CellBatch) TermsMwInto(dst []float64, idx []int32, rsrp []float64) {
	for k, ci := range idx {
		dst[k] = dbmToMw(rsrp[k]) * clamp01(b.cells[ci].Load)
	}
}

// MeasureOne computes the full KPI sample for shortlist entry k, with
// interference summed over the other shortlist entries. rsrp and termMw
// are the RSRPInto / TermsMwInto outputs for idx.
// Bit-identical to MeasureCell over the equivalent InterferenceTerm
// list: the interference sum skips serving-PCI terms and accumulates in
// shortlist order, and the KPI chain is the shared measureFrom core.
func (b *CellBatch) MeasureOne(idx []int32, rsrp, termMw []float64, k int) Measurement {
	i := int(idx[k])
	serving := b.cells[i]
	sig := dbmToMw(rsrp[k])
	var interf float64
	for j, cj := range idx {
		if b.pcis[cj] == serving.PCI {
			continue
		}
		interf += termMw[j]
	}
	return measureFrom(serving, rsrp[k], sig, interf, b.noiseMw[i])
}
