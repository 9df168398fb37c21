package pop

import (
	"context"
	"errors"
	"testing"

	"fivegsim/internal/coverage"
	"fivegsim/internal/deploy"
	"fivegsim/internal/geom"
	"fivegsim/internal/obs"
	"fivegsim/internal/radio"
	"fivegsim/internal/traffic"
)

// The population-dynamics property/invariant suite (ISSUE 8): churn
// conservation, A3 TTT/hysteresis invariants, load-coupling boundedness,
// the N=1 probe contract under A3, Workers-equivalence with every
// dynamic enabled, cancellation safety and the steady-state allocation
// guard.

func dynamicsModelForTest(n, ticks int) Model {
	m := DefaultModel()
	m.N = n
	m.Ticks = ticks
	m.Churn = ChurnModel{Enabled: true, ArrivalPerTick: 8, MeanLifetimeTicks: 40}
	m.A3 = A3Model{Enabled: true, HysteresisDB: 3, TTTTicks: 3}
	m.LoadCoupling = LoadCouplingModel{Enabled: true, Alpha: 0.3}
	return m
}

// dynamicsFingerprint extends the determinism fingerprint with the
// dynamics summary so churn/hand-off state is part of the byte-compared
// report.
func dynamicsFingerprint(p *Population) string {
	s := reportFingerprint(p)
	for _, l := range p.DynamicsLines() {
		s += l + "\n"
	}
	return s
}

// TestChurnConservation is the exhaustive per-tick conservation law:
// births − deaths == ΔAlive at every tick, the free list and the live
// set always partition the arena, and the live count equals the number
// of occupied slots.
func TestChurnConservation(t *testing.T) {
	m := dynamicsModelForTest(500, 60)
	if testing.Short() {
		m.Ticks = 25
	}
	campus := deploy.New(42)
	p := New(campus, m, 42)
	defer p.RestoreLoads()
	if p.Alive() != 500 {
		t.Fatalf("initial alive %d, want 500", p.Alive())
	}
	for k := 0; k < m.Ticks; k++ {
		before := p.Alive()
		p.Tick(1)
		births, deaths, blocked := p.TickChurn()
		if delta := p.Alive() - before; births-deaths != int64(delta) {
			t.Fatalf("tick %d: births %d − deaths %d != ΔAlive %d", k, births, deaths, delta)
		}
		if blocked < 0 {
			t.Fatalf("tick %d: negative blocked count %d", k, blocked)
		}
		if p.FreeSlots()+p.Alive() != p.Len() {
			t.Fatalf("tick %d: free %d + alive %d != capacity %d",
				k, p.FreeSlots(), p.Alive(), p.Len())
		}
		occupied := 0
		for i := 0; i < p.n; i++ {
			if p.bornTick[i] >= 0 {
				occupied++
			}
		}
		if occupied != p.Alive() {
			t.Fatalf("tick %d: %d occupied slots, alive says %d", k, occupied, p.Alive())
		}
	}
	if int64(p.Alive()) != 500+p.Births()-p.Deaths() {
		t.Fatalf("total conservation: alive %d != 500 + births %d − deaths %d",
			p.Alive(), p.Births(), p.Deaths())
	}
	if p.Births() == 0 || p.Deaths() == 0 {
		t.Fatalf("churn inactive: births %d deaths %d — model exercises nothing", p.Births(), p.Deaths())
	}
}

// TestChurnArenaFullBlocksBirths drives a tiny arena to saturation and
// pins the overflow policy: arrivals are dropped (counted), never
// written over a live slot, and conservation still holds.
func TestChurnArenaFullBlocksBirths(t *testing.T) {
	m := DefaultModel()
	m.N = 50
	m.Ticks = 30
	m.Churn = ChurnModel{Enabled: true, ArrivalPerTick: 20, MeanLifetimeTicks: 1000, maxN: 60}
	campus := deploy.New(7)
	p := New(campus, m, 7)
	for k := 0; k < m.Ticks; k++ {
		p.Tick(1)
		if p.Alive() > p.Len() {
			t.Fatalf("tick %d: alive %d exceeds capacity %d", k, p.Alive(), p.Len())
		}
		if p.FreeSlots()+p.Alive() != p.Len() {
			t.Fatalf("tick %d: arena partition broken", k)
		}
	}
	if p.BlockedBirths() == 0 {
		t.Fatal("20 arrivals/tick into a 60-slot arena never blocked a birth")
	}
}

// TestA3NoHandoffBeforeTTT is the TTT invariant: every same-technology
// hand-off whose old serving cell was still measurable and usable (i.e.
// not a forced radio-link-failure hand-off) must have held its A3
// advantage for exactly TTTTicks consecutive ticks — the hold counter
// snapshot before the firing tick reads TTTTicks−1 — and the winning
// candidate must clear the hysteresis margin at the firing tick.
func TestA3NoHandoffBeforeTTT(t *testing.T) {
	campus := deploy.New(7)
	m := DefaultModel()
	m.N = 800
	m.Ticks = 60
	m.MaxSpeedKmh = 60 // brisk, to provoke hand-offs inside the window
	m.A3 = A3Model{Enabled: true, HysteresisDB: 3, TTTTicks: 3}
	if testing.Short() {
		m.N, m.Ticks = 300, 30
	}
	p := New(campus, m, 7)
	prevCell := make([]int32, p.n)
	prevHold := make([]int32, p.n)
	handoffs, checked := 0, 0
	for k := 0; k < m.Ticks; k++ {
		copy(prevCell, p.cell)
		copy(prevHold, p.a3Hold)
		p.Tick(1)
		for i := 0; i < p.n; i++ {
			old, now := prevCell[i], p.cell[i]
			if old < 0 || now < 0 || old == now {
				continue
			}
			handoffs++
			if p.cells[old].Tech != p.cells[now].Tech {
				continue // vertical hand-off: RSRP not comparable, TTT not applicable
			}
			pos := geom.Point{X: p.x[i], Y: p.y[i]}
			serv, ok := campus.MeasureServing(p.cells[old].Tech, pos, p.cells[old].PCI)
			if !ok || !serv.Usable() {
				continue // radio-link failure: forced hand-off bypasses TTT
			}
			checked++
			if int(prevHold[i]) != p.Model.A3.TTTTicks-1 {
				t.Fatalf("tick %d UE %d: hand-off %d→%d fired with hold %d, want %d (TTT %d)",
					k, i, old, now, prevHold[i], p.Model.A3.TTTTicks-1, p.Model.A3.TTTTicks)
			}
			best, okB := campus.BestServer(p.cells[now].Tech, pos)
			if okB && best.PCI == p.cells[now].PCI &&
				best.RSRPdBm-serv.RSRPdBm <= p.Model.A3.HysteresisDB {
				t.Fatalf("tick %d UE %d: hand-off %d→%d with margin %.2f dB ≤ hysteresis %.1f dB",
					k, i, old, now, best.RSRPdBm-serv.RSRPdBm, p.Model.A3.HysteresisDB)
			}
		}
	}
	if handoffs == 0 {
		t.Fatal("no hand-offs occurred — the invariant was never exercised")
	}
	if ho, _ := p.Handoffs(); ho == 0 {
		t.Fatal("per-UE hand-off counters stayed zero despite observed serving changes")
	}
	_ = checked
}

// TestA3HysteresisBlocksAllHandoffs pins the hysteresis half of Eq. (1)
// from the other side: with an unreachable margin, a static population
// never hands off — and its reports are byte-identical to the memoryless
// engine, since a static UE's sticky serving cell IS its best server.
func TestA3HysteresisBlocksAllHandoffs(t *testing.T) {
	base := popModelForTest(400, 10)
	base.MaxSpeedKmh = 0
	campus := deploy.New(42)
	want := reportFingerprint(runFull(campus, base, 42, 1, Telemetry{}))

	a3 := base
	a3.A3 = A3Model{Enabled: true, HysteresisDB: 1000, TTTTicks: 3}
	p := runFull(campus, a3, 42, 1, Telemetry{})
	if ho, pp := p.Handoffs(); ho != 0 || pp != 0 {
		t.Fatalf("static population under 1000 dB hysteresis handed off %d times (%d ping-pongs)", ho, pp)
	}
	if got := reportFingerprint(p); got != want {
		t.Fatalf("static A3 run diverged from memoryless engine:\n--- memoryless ---\n%s--- a3 ---\n%s", want, got)
	}
}

// TestSingleUEProbeContractWithA3 re-pins the N=1 bit-for-bit probe
// contract with the A3 state machine enabled: a teleported probe is a
// fresh camp each Place, so it must attach to the survey's best server
// and deliver exactly radio.DLBitRate — stateful attach included.
func TestSingleUEProbeContractWithA3(t *testing.T) {
	campus := deploy.New(42)
	n := 200
	if testing.Short() {
		n = 60
	}
	survey := coverage.NewSurveyor(campus, n, 42).Run(1)

	m := DefaultModel()
	m.N = 1
	m.MaxSpeedKmh = 0
	m.Mix = traffic.MixWeights{Web: 0, Video: 0, Bulk: 1} // saturating probe
	m.A3 = A3Model{Enabled: true, HysteresisDB: 3, TTTTicks: 3}

	p := New(campus, m, 42)
	for i, s := range survey.Samples {
		p.Place(0, s.Pos)
		p.Tick(1)
		var want radio.Measurement
		var band radio.Band
		switch {
		case s.NR.Usable():
			want, band = s.NR, radio.BandNR()
		case s.LTE.Usable():
			want, band = s.LTE, radio.BandLTE()
		default:
			if p.ServingPCI(0) != -1 {
				t.Fatalf("sample %d: survey saw outage, A3 population attached to PCI %d", i, p.ServingPCI(0))
			}
			continue
		}
		if p.ServingPCI(0) != want.PCI {
			t.Fatalf("sample %d: serving PCI %d, survey best server %d", i, p.ServingPCI(0), want.PCI)
		}
		if got, exp := p.ThroughputBps(0), radio.DLBitRate(want, band, band.PRBs); got != exp {
			t.Fatalf("sample %d: throughput %.17g, probe pipeline %.17g (must be bit-identical)", i, got, exp)
		}
	}
}

// TestLoadCouplingBounded pins the EWMA fixed point: with utilization in
// [0, 1] every coupled Load stays in [0, 1] at every tick — no runaway
// interference spiral — and RestoreLoads puts the campus back exactly.
func TestLoadCouplingBounded(t *testing.T) {
	m := dynamicsModelForTest(1000, 40)
	if testing.Short() {
		m.N, m.Ticks = 400, 15
	}
	campus := deploy.New(1)
	orig := make([]float64, 0)
	for _, c := range append(append([]*radio.Cell(nil), campus.NRCells...), campus.LTECells...) {
		orig = append(orig, c.Load)
	}
	p := New(campus, m, 1)
	moved := false
	for k := 0; k < m.Ticks; k++ {
		p.Tick(1)
		for c := range p.cells {
			l := p.CoupledLoad(c)
			if l < 0 || l > 1 {
				t.Fatalf("tick %d: cell %d coupled load %f outside [0,1]", k, c, l)
			}
			if p.cells[c].Load != l {
				t.Fatalf("tick %d: cell %d Load %f not published (ewma %f)", k, c, p.cells[c].Load, l)
			}
			if l != orig[c] {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("coupled loads never departed from the static baseline")
	}
	p.RestoreLoads()
	all := append(append([]*radio.Cell(nil), campus.NRCells...), campus.LTECells...)
	for c, cell := range all {
		if cell.Load != orig[c] {
			t.Fatalf("RestoreLoads left cell %d at %f, want %f", c, cell.Load, orig[c])
		}
	}
}

// TestDynamicsWorkersEquivalence is the headline determinism property:
// with churn, A3 and load coupling all enabled, the extended report
// (cell loads, fairness, dynamics summary) is byte-identical for Workers
// 1, 2 and 8 across seeds 1, 42 and 7.
func TestDynamicsWorkersEquivalence(t *testing.T) {
	n, ticks := 1200, 25
	if testing.Short() {
		n, ticks = 400, 10
	}
	for _, seed := range []int64{1, 42, 7} {
		campus := deploy.New(seed)
		base := dynamicsFingerprint(runFull(campus, dynamicsModelForTest(n, ticks), seed, 1, Telemetry{}))
		for _, workers := range []int{2, 8} {
			got := dynamicsFingerprint(runFull(campus, dynamicsModelForTest(n, ticks), seed, workers, Telemetry{}))
			if got != base {
				t.Fatalf("seed %d: workers %d dynamics report differs from workers 1:\n--- w1 ---\n%s--- w%d ---\n%s",
					seed, workers, base, workers, got)
			}
		}
	}
}

// TestChurnCancellation: a churning campaign canceled mid-run leaks no
// arena slots (the free-list partition holds), reports the context error,
// and its partial results are byte-identical to a run of exactly the
// completed tick count — paper-ordered, nothing torn.
func TestChurnCancellation(t *testing.T) {
	const cutAt = 6
	m := dynamicsModelForTest(500, 40)
	campus := deploy.New(42)

	ctx, cancel := context.WithCancel(context.Background())
	tel := Telemetry{Obs: obs.NewRegistry(), OnTick: func(tick, total int) {
		if tick >= cutAt {
			cancel()
		}
	}}
	p, err := RunContext(ctx, campus, m, 42, 4, tel)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if p.Ticks() != cutAt {
		t.Fatalf("canceled run executed %d ticks, want %d", p.Ticks(), cutAt)
	}
	if p.FreeSlots()+p.Alive() != p.Len() {
		t.Fatalf("canceled run leaked arena slots: free %d + alive %d != capacity %d",
			p.FreeSlots(), p.Alive(), p.Len())
	}

	// Reference: the same model ticked exactly cutAt times, no cancellation.
	ref := New(campus, m, 42)
	for k := 0; k < cutAt; k++ {
		ref.Tick(4)
	}
	ref.RestoreLoads()
	if got, want := dynamicsFingerprint(p), dynamicsFingerprint(ref); got != want {
		t.Fatalf("partial results differ from a %d-tick run:\n--- canceled ---\n%s--- reference ---\n%s",
			cutAt, got, want)
	}

	// An uncancelable run reports nil and the full tick count.
	p2, err := RunContext(context.Background(), campus, m, 42, 4, Telemetry{})
	if err != nil || p2.Ticks() != m.Ticks {
		t.Fatalf("clean run: err %v ticks %d, want nil and %d", err, p2.Ticks(), m.Ticks)
	}
}

// TestDynamicsTickAllocs is the steady-state allocation guard with every
// dynamic enabled: churn draws, A3 measurements and the load EWMA must
// all run inside the preallocated arena (TestDynamicsTickZeroAlloc100k
// holds the same invariant at scale).
func TestDynamicsTickAllocs(t *testing.T) {
	m := dynamicsModelForTest(2000, 50)
	campus := deploy.New(42)
	p := New(campus, m, 42)
	defer p.RestoreLoads()
	for k := 0; k < 5; k++ {
		p.Tick(1) // settle into churn steady state
	}
	if got := testing.AllocsPerRun(10, func() { p.Tick(1) }); got > 0 {
		t.Fatalf("dynamics tick allocates %.1f times, want 0", got)
	}
}

// TestChurnSeedSensitivity guards the churn substreams against stream
// collapse: different seeds must produce different churn histories.
func TestChurnSeedSensitivity(t *testing.T) {
	m := dynamicsModelForTest(300, 10)
	a := runFull(deploy.New(1), m, 1, 1, Telemetry{})
	b := runFull(deploy.New(2), m, 2, 1, Telemetry{})
	if dynamicsFingerprint(a) == dynamicsFingerprint(b) {
		t.Fatal("seeds 1 and 2 produced identical dynamics reports")
	}
}
