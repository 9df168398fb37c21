package pop

import (
	"fmt"

	"fivegsim/internal/radio"
	"fivegsim/internal/stats"
)

// Reports over a finished run. Every formatter here emits byte-stable
// lines — fixed ordering (dense cell index, which is PCI-ordered within
// each technology), fixed float formatting — because the determinism
// suite compares Workers-1 and Workers-N runs as raw bytes, not as
// parsed approximations.

// utilWindow returns the recorded utilization samples, tick-major in
// dense cell order: the last min(Ticks, Model.Ticks) ticks.
func (p *Population) utilWindow() []float64 {
	return p.util[:min(p.tick, p.utilTicks)*len(p.cells)]
}

// UtilSamples appends every recorded per-tick utilization sample
// (granted PRBs / budget) of the given technology's cells to out and
// returns it. The window covers the last min(Ticks, Model.Ticks) ticks.
func (p *Population) UtilSamples(t radio.Tech, out []float64) []float64 {
	for k, u := range p.utilWindow() {
		if p.cells[k%len(p.cells)].Tech == t {
			out = append(out, u)
		}
	}
	return out
}

// MeanUtil returns the mean recorded utilization of the technology's
// cells over the sample window. It sums the samples in place, in
// UtilSamples' order, so it allocates nothing and matches the mean over
// UtilSamples bit for bit.
func (p *Population) MeanUtil(t radio.Tech) float64 {
	var sum float64
	var n int
	for k, u := range p.utilWindow() {
		if p.cells[k%len(p.cells)].Tech == t {
			sum += u
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// PerUEThroughputBps returns each UE's mean delivered rate over the run
// (total delivered bits / elapsed time). Without churn index i is UE i
// and elapsed time is the whole run; with churn the slice covers the
// currently live UEs in slot order, each normalized by its own lifetime
// so short-lived arrivals are not diluted by ticks before their birth.
func (p *Population) PerUEThroughputBps() []float64 {
	tickSec := p.Model.TickDur.Seconds()
	if !p.Model.Churn.Enabled {
		out := make([]float64, p.n)
		elapsed := float64(p.tick) * tickSec
		if elapsed <= 0 {
			return out
		}
		for i, bits := range p.sumBits {
			out[i] = bits / elapsed
		}
		return out
	}
	out := make([]float64, 0, p.alive)
	for i := 0; i < p.n; i++ {
		if p.bornTick[i] < 0 {
			continue
		}
		life := float64(p.tick-int(p.bornTick[i])) * tickSec
		if life <= 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, p.sumBits[i]/life)
	}
	return out
}

// JainIndex computes Jain's fairness index J = (Σx)² / (n·Σx²) over xs.
// 1 is perfectly fair; 1/n is maximally unfair. Empty or all-zero input
// returns 0.
func JainIndex(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if len(xs) == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// CellLoadLines formats one line per cell — dense index order — with the
// cell's PCI, technology, mean utilization over the sample window, and
// mean attached UEs per tick. The byte-stable output is the determinism
// suite's cell-load fingerprint.
func (p *Population) CellLoadLines() []string {
	ncells := len(p.cells)
	ticks := p.tick
	window := ticks
	if window > p.utilTicks {
		window = p.utilTicks
	}
	lines := make([]string, 0, ncells)
	for c, cell := range p.cells {
		var sum float64
		for k := 0; k < window; k++ {
			sum += p.util[k*ncells+c]
		}
		meanUtil := 0.0
		if window > 0 {
			meanUtil = sum / float64(window)
		}
		meanAttach := 0.0
		if ticks > 0 {
			meanAttach = float64(p.attach[c]) / float64(ticks)
		}
		lines = append(lines, fmt.Sprintf("cell pci=%d tech=%s util=%.9f attach=%.4f",
			cell.PCI, cell.Tech, meanUtil, meanAttach))
	}
	return lines
}

// FairnessLines formats the population-level fairness summary: Jain's
// index and throughput percentiles over per-UE mean rates, byte-stable
// for the determinism suite.
func (p *Population) FairnessLines() []string {
	thr := p.PerUEThroughputBps()
	q := stats.Quantiles(thr, 0.10, 0.50, 0.90)
	return []string{
		fmt.Sprintf("fairness n=%d jain=%.9f", len(thr), JainIndex(thr)),
		fmt.Sprintf("throughput_mbps p10=%.6f p50=%.6f p90=%.6f", q[0]/1e6, q[1]/1e6, q[2]/1e6),
	}
}
