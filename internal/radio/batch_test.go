package radio

import (
	"math"
	"math/rand"
	"testing"

	"fivegsim/internal/geom"
)

// gridObs is a deterministic stub Obstruction: walls appear every 40 m of
// Manhattan displacement, and a point is indoor when it falls in the odd
// 30 m stripe of both axes. It exercises the wall-count and indoor
// branches of PathLoss without dragging in the deployment layer.
type gridObs struct{}

func (gridObs) WallCrossings(a, b geom.Point) int {
	return int((math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)) / 40)
}

func (gridObs) Indoor(p geom.Point) bool {
	return int(p.X/30)%2 == 1 && int(p.Y/30)%2 == 1
}

// randomCells builds a mixed-tech cell list with randomized geometry,
// antenna patterns and loads — including the clamp corners Load < 0 and
// Load > 1 that MeasureCell's clamp01 must reproduce.
func randomCells(r *rand.Rand, n int) []*Cell {
	cells := make([]*Cell, n)
	for i := range cells {
		tech := LTE
		band := BandLTE()
		if i%2 == 0 {
			tech = NR
			band = BandNR()
		}
		load := r.Float64()*1.6 - 0.3 // spans [-0.3, 1.3): both clamp corners
		cells[i] = &Cell{
			PCI:  100 + i,
			Tech: tech,
			Band: band,
			Pos:  geom.Point{X: r.Float64() * 900, Y: r.Float64() * 600},
			Antenna: SectorAntenna{
				BoresightDeg: r.Float64() * 360,
				BeamwidthDeg: 40 + r.Float64()*50,
				MaxGainDBi:   10 + r.Float64()*10,
				FrontToBack:  20 + r.Float64()*10,
			},
			EIRPPerREdBm: DefaultEIRPPerRE(tech) + r.Float64()*4 - 2,
			Load:         load,
		}
	}
	return cells
}

// batchEnv evaluates the stub environment for every cell at p, exactly as
// the deployment layer would before calling the kernels.
func batchEnv(cells []*Cell, p geom.Point, r *rand.Rand) (idx []int32, walls []int32, indoor bool, shadow []float64) {
	obs := gridObs{}
	idx = make([]int32, len(cells))
	walls = make([]int32, len(cells))
	shadow = make([]float64, len(cells))
	for i, c := range cells {
		idx[i] = int32(i)
		walls[i] = int32(obs.WallCrossings(c.Pos, p))
		shadow[i] = r.NormFloat64() * 4
	}
	return idx, walls, obs.Indoor(p), shadow
}

// TestBatchRSRPMatchesScalar pins the tentpole equivalence: RSRPInto is
// bit-for-bit RSRPAt for every cell, point, wall count, indoor state and
// shadow value — across seeds, including indoor points behind multiple
// walls (blockage-cap corner) and points inside the d < 1 m clamp.
func TestBatchRSRPMatchesScalar(t *testing.T) {
	for _, seed := range []int64{1, 42, 7} {
		r := rand.New(rand.NewSource(seed))
		cells := randomCells(r, 12)
		b := NewCellBatch(cells)
		dst := make([]float64, len(cells))
		points := make([]geom.Point, 0, 64)
		for i := 0; i < 60; i++ {
			points = append(points, geom.Point{X: r.Float64() * 900, Y: r.Float64() * 600})
		}
		// Corner probes: on top of a cell (d < 1 clamp), deep indoor far
		// corner (wall cap + indoor penetration).
		points = append(points, cells[0].Pos, geom.Point{X: 45, Y: 45}, geom.Point{X: 895, Y: 595})
		for _, p := range points {
			idx, walls, indoor, shadow := batchEnv(cells, p, r)
			b.RSRPInto(dst, idx, p, walls, indoor, shadow)
			for i, c := range cells {
				want := RSRPAt(c, p, gridObs{}, shadow[i])
				if math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("seed %d cell %d at %+v: batch %v != scalar %v", seed, i, p, dst[i], want)
				}
			}
		}
	}
}

// TestBatchMeasureMatchesScalar pins MeasureOne == MeasureCell bit for
// bit: same serving RSRP, same load-clamped interference sum in the same
// neighbor order, same KPI chain — for every cell as serving, across
// seeds and the Load clamp corners randomCells plants.
func TestBatchMeasureMatchesScalar(t *testing.T) {
	for _, seed := range []int64{1, 42, 7} {
		r := rand.New(rand.NewSource(seed))
		cells := randomCells(r, 10)
		b := NewCellBatch(cells)
		rsrp := make([]float64, len(cells))
		termMw := make([]float64, len(cells))
		terms := make([]InterferenceTerm, len(cells))
		for pt := 0; pt < 40; pt++ {
			p := geom.Point{X: r.Float64() * 900, Y: r.Float64() * 600}
			idx, walls, indoor, shadow := batchEnv(cells, p, r)
			b.RSRPInto(rsrp, idx, p, walls, indoor, shadow)
			b.TermsMwInto(termMw, idx, rsrp)
			for i, c := range cells {
				terms[i] = InterferenceTerm{PCI: c.PCI, RSRPdBm: rsrp[i], Load: c.Load}
			}
			for k := range cells {
				got := b.MeasureOne(idx, rsrp, termMw, k)
				want := MeasureCell(cells[k], rsrp[k], terms)
				if got != want {
					t.Fatalf("seed %d serving %d at %+v:\n batch  %+v\n scalar %+v", seed, k, p, got, want)
				}
			}
		}
	}
}

// TestBatchLoadReadLive pins the "Load is never cached" contract: mutating
// a cell's Load through the retained pointer after NewCellBatch must
// change the interference terms on the next evaluation.
func TestBatchLoadReadLive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cells := randomCells(r, 6)
	b := NewCellBatch(cells)
	p := geom.Point{X: 333, Y: 222}
	idx, walls, indoor, shadow := batchEnv(cells, p, r)
	rsrp := make([]float64, len(cells))
	termMw := make([]float64, len(cells))
	b.RSRPInto(rsrp, idx, p, walls, indoor, shadow)

	cells[1].Load = 0.25
	b.TermsMwInto(termMw, idx, rsrp)
	quarter := termMw[1]
	cells[1].Load = 1.0
	b.TermsMwInto(termMw, idx, rsrp)
	if math.Float64bits(termMw[1]) != math.Float64bits(quarter*4) {
		t.Fatalf("load mutation not visible: term at load 1.0 = %v, want 4×%v", termMw[1], quarter)
	}
}
