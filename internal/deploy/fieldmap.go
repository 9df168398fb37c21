package deploy

import (
	"math"
	"math/bits"
	"sync/atomic"

	"fivegsim/internal/geom"
	"fivegsim/internal/par"
	"fivegsim/internal/radio"
)

// fieldMap is the cached coarse coverage map of one technology: the campus
// partitioned into fmBucketM-sized squares, each holding the shortlist of
// cells that can plausibly win best-server anywhere inside it. BestServer
// then evaluates a handful of candidates instead of every cell.
//
// A bucket is one word: bit i set means batch index i (into the
// technology's radio.CellBatch) is on the shortlist, and bit fmBuilt
// marks the word built, so 0 is an unbuilt bucket. shortlist expands the
// bits in ascending order into the caller's buffer, which feeds the
// batched kernels directly: one lookup yields the exact index slice
// RSRPInto/TermsMwInto iterate. The whole map is one flat word array, so
// building it allocates nothing per bucket.
//
// A bucket's shortlist is every cell that comes within fmMarginDB of the
// strongest cell at any of a 5×5 grid of probe points over the bucket.
// The margin is far wider than the shadow field can swing between probes
// (the fading is spatially correlated with a 25 m lattice — the same pitch
// as the buckets — so it varies by only a few dB within one), which is why
// the shortlist winner matches the exhaustive scan; the equivalence is
// locked in by TestBestServerMatchesExhaustive rather than assumed.
//
// Buckets are built lazily on first lookup, so campuses whose experiments
// never query a region pay nothing for it. Builds are deterministic pure
// functions of (seed, geometry), so concurrent builders racing on the same
// bucket store identical words; the atomic word makes the publish safe
// under a sharded survey's worker pool.
type fieldMap struct {
	campus *Campus
	tech   radio.Tech
	nx, ny int
	bucket []atomic.Uint64
}

const (
	// fmBucketM matches the shadow-field lattice pitch (campus.go).
	fmBucketM = 25.0
	// fmMarginDB is the shortlist admission margin below the per-probe
	// maximum. Chosen empirically with slack: mismatches against the
	// exhaustive scan appear only below ≈8 dB.
	fmMarginDB = 14.0
	// fmBuilt is the built flag of a bucket word; the bits below it are
	// the shortlist.
	fmBuilt = uint64(1) << 63
)

// A bucket word holds one bit per batch index below its built flag, so
// batchMax must stay at most 63; this constant stops compiling otherwise.
const _ = uint(63 - batchMax)

func newFieldMap(c *Campus, tech radio.Tech) *fieldMap {
	f := &fieldMap{
		campus: c,
		tech:   tech,
		nx:     int(c.Bounds.Width()/fmBucketM) + 1,
		ny:     int(c.Bounds.Height()/fmBucketM) + 1,
	}
	f.bucket = make([]atomic.Uint64, f.nx*f.ny)
	return f
}

// word returns the built bucket word covering p, or 0 when p lies
// outside the bucketed area.
func (f *fieldMap) word(p geom.Point) uint64 {
	bx := int(p.X / fmBucketM)
	by := int(p.Y / fmBucketM)
	if p.X < 0 || p.Y < 0 || bx >= f.nx || by >= f.ny {
		return 0
	}
	b := &f.bucket[by*f.nx+bx]
	w := b.Load()
	if w == 0 {
		w = f.build(bx, by)
		b.Store(w)
	}
	return w
}

// build probes a 5×5 grid over bucket (bx, by) — edges and corners
// included, since queries land there too — and admits every cell within
// fmMarginDB of the strongest at any probe. The per-probe RSRP column
// comes from the batched kernel (bit-identical to the scalar chain, so
// shortlists are unchanged by the batch rewrite). It returns the built
// bucket word.
func (f *fieldMap) build(bx, by int) uint64 {
	c := f.campus
	b := c.batchFor(f.tech)
	all := c.allIdx(f.tech)
	n := len(all)
	keep := fmBuilt
	var s evalScratch
	rsrp := s.rsrp[:n]
	offsets := [5]float64{0, 0.25, 0.5, 0.75, 1}
	for _, oy := range offsets {
		for _, ox := range offsets {
			p := geom.Point{
				X: (float64(bx) + ox) * fmBucketM,
				Y: (float64(by) + oy) * fmBucketM,
			}
			c.rsrpBatch(b, all, p, s.walls[:n], s.shadow[:n], rsrp)
			best := math.Inf(-1)
			for i := 0; i < n; i++ {
				if rsrp[i] > best {
					best = rsrp[i]
				}
			}
			for i := 0; i < n; i++ {
				if rsrp[i] >= best-fmMarginDB {
					keep |= 1 << i
				}
			}
		}
	}
	return keep
}

// WarmFieldMaps builds every field-map bucket of both technologies up
// front, sharded over bucket rows across up to workers goroutines (the
// par.Workers convention: 0 = GOMAXPROCS). Population ticks query
// BestServer for every UE, so pre-warming turns the lazy per-bucket
// builds into a one-time cost (the PopTick benches rely on this).
// Builds are pure functions of (seed, geometry) published as atomic
// words, so any interleaving yields the same shortlists; workers is a
// pure throughput knob.
func (c *Campus) WarmFieldMaps(workers int) {
	for _, f := range []*fieldMap{c.nrField, c.lteField} {
		f := f
		par.Do(workers, par.ShardSize(f.ny, 4), func(sh par.Range) {
			for by := sh.Lo; by < sh.Hi; by++ {
				y := (float64(by) + 0.5) * fmBucketM
				for bx := 0; bx < f.nx; bx++ {
					f.word(geom.Point{X: (float64(bx) + 0.5) * fmBucketM, Y: y})
				}
			}
		})
	}
}

// shortlist returns the candidate batch indices covering p: the cached
// field-map shortlist, its bits appended to dst in ascending order, or
// every cell of the technology outside the bucketed area.
func (c *Campus) shortlist(t radio.Tech, p geom.Point, dst []int32) []int32 {
	f := c.lteField
	if t == radio.NR {
		f = c.nrField
	}
	w := f.word(p)
	if w == 0 {
		return c.allIdx(t)
	}
	for m := w &^ fmBuilt; m != 0; m &= m - 1 {
		dst = append(dst, int32(bits.TrailingZeros64(m)))
	}
	return dst
}

// BestServer returns the strongest cell's measurement at p, or ok=false if
// the technology has no cells. It resolves the winner over the cached
// field-map shortlist — exact RSRP from the batched kernel, evaluated for
// 2–4 candidates instead of every cell — and computes the KPI sample
// against the shortlist's interference terms. Cells excluded from the
// shortlist sit ≥14 dB below the winner, so their interference
// contribution is negligible. Outside the bucketed area the shortlist is
// every cell, which is the exhaustive scan. The fixed stack scratch keeps
// every query allocation-free.
func (c *Campus) BestServer(t radio.Tech, p geom.Point) (radio.Measurement, bool) {
	var s evalScratch
	cand := c.shortlist(t, p, s.idx[:0])
	if len(cand) == 0 {
		return radio.Measurement{}, false
	}
	b := c.batchFor(t)
	rsrp, termMw := s.eval(c, b, cand, p)
	bestK := 0
	for k := 1; k < len(cand); k++ {
		// Same tie-break as MeasureAllInto's ordering: equal RSRP goes to
		// the lower PCI (shortlists are PCI-ordered only within a site, so
		// compare explicitly).
		if rsrp[k] > rsrp[bestK] ||
			(rsrp[k] == rsrp[bestK] && b.PCI(int(cand[k])) < b.PCI(int(cand[bestK]))) {
			bestK = k
		}
	}
	return b.MeasureOne(cand, rsrp, termMw, bestK), true
}

// MeasureServing measures one specific cell (by PCI) at p against the
// local interference field — the stateful A3 attach's view of a serving
// cell that may no longer be the strongest. It shares BestServer's
// shortlist and fixed scratch, so it is allocation-free. ok=false means
// the cell is not measurable here: unknown PCI, or the cell fell off the
// field-map shortlist (≥14 dB below the local best — radio-link failure
// territory for any serving relation).
func (c *Campus) MeasureServing(t radio.Tech, p geom.Point, pci int) (radio.Measurement, bool) {
	var s evalScratch
	cand := c.shortlist(t, p, s.idx[:0])
	b := c.batchFor(t)
	for k, ci := range cand {
		if b.PCI(int(ci)) == pci {
			rsrp, termMw := s.eval(c, b, cand, p)
			return b.MeasureOne(cand, rsrp, termMw, k), true
		}
	}
	return radio.Measurement{}, false
}
