package fault_test

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"fivegsim/internal/fault"
	"fivegsim/internal/netsim"
	"fivegsim/internal/radio"
	"fivegsim/internal/transport"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan *fault.Plan
		ok   bool
	}{
		{"nil plan", nil, false},
		{"empty plan", &fault.Plan{Name: "empty"}, false},
		{"outage ok", fault.Outage("ho", time.Second, 100*time.Millisecond), true},
		{"negative start", &fault.Plan{Name: "p", Faults: []fault.Fault{
			{Kind: fault.LinkOutage, At: -time.Second, Dur: time.Second}}}, false},
		{"zero duration", &fault.Plan{Name: "p", Faults: []fault.Fault{
			{Kind: fault.LinkOutage, At: time.Second}}}, false},
		{"loss rate too high", &fault.Plan{Name: "p", Faults: []fault.Fault{
			{Kind: fault.LossBurst, At: 0, Dur: time.Second, LossRate: 1.5}}}, false},
		{"loss rate ok", &fault.Plan{Name: "p", Faults: []fault.Fault{
			{Kind: fault.LossBurst, At: 0, Dur: time.Second, LossRate: 0.05}}}, true},
		{"latency without extra", &fault.Plan{Name: "p", Faults: []fault.Fault{
			{Kind: fault.LatencyBurst, At: 0, Dur: time.Second}}}, false},
		{"degrade scale 1", &fault.Plan{Name: "p", Faults: []fault.Fault{
			{Kind: fault.WiredDegrade, At: 0, Dur: time.Second, Scale: 1}}}, false},
		{"degrade ok", &fault.Plan{Name: "p", Faults: []fault.Fault{
			{Kind: fault.RadioDegrade, At: 0, Dur: time.Second, Scale: 0.3}}}, true},
		{"loss rate NaN", &fault.Plan{Name: "p", Faults: []fault.Fault{
			{Kind: fault.LossBurst, At: 0, Dur: time.Second, LossRate: math.NaN()}}}, false},
		{"degrade scale NaN", &fault.Plan{Name: "p", Faults: []fault.Fault{
			{Kind: fault.RadioDegrade, At: 0, Dur: time.Second, Scale: math.NaN()}}}, false},
		{"window end overflows", &fault.Plan{Name: "p", Faults: []fault.Fault{
			{Kind: fault.LinkOutage, At: math.MaxInt64 - time.Second, Dur: 2 * time.Second}}}, false},
		{"window ends at the last instant", &fault.Plan{Name: "p", Faults: []fault.Fault{
			{Kind: fault.LinkOutage, At: math.MaxInt64 - time.Second, Dur: time.Second}}}, true},
		{"unknown kind", &fault.Plan{Name: "p", Faults: []fault.Fault{
			{Kind: fault.Kind(99), At: 0, Dur: time.Second}}}, false},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: expected a validation error", tc.name)
			} else if !errors.Is(err, fault.ErrInvalidPlan) {
				t.Errorf("%s: error %v does not wrap ErrInvalidPlan", tc.name, err)
			}
		}
	}
}

func TestScenarioPlansValidate(t *testing.T) {
	for _, s := range fault.Scenarios() {
		p := s.Plan()
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s yields an invalid plan: %v", s, err)
		}
		if p.Name != string(s) {
			t.Errorf("preset %s plan is named %q", s, p.Name)
		}
		if p.Duration() > 8*time.Second {
			t.Errorf("preset %s runs to %s — outside the Quick-mode 8 s flow", s, p.Duration())
		}
	}
}

func TestScenarioByName(t *testing.T) {
	s, err := fault.ScenarioByName("cell-failover")
	if err != nil || s != fault.CellFailover {
		t.Fatalf("ScenarioByName(cell-failover) = %v, %v", s, err)
	}
	if _, err := fault.ScenarioByName("meteor-strike"); !errors.Is(err, fault.ErrUnknownScenario) {
		t.Fatalf("unknown scenario error %v does not wrap ErrUnknownScenario", err)
	}
}

func TestCellDownAndDownPCIs(t *testing.T) {
	p := &fault.Plan{Name: "holes", Faults: []fault.Fault{
		{Kind: fault.CellFailure, At: time.Second, Dur: 2 * time.Second, PCI: 72},
		{Kind: fault.CellFailure, At: 0, Dur: time.Second, PCI: 44},
		{Kind: fault.CellFailure, At: 5 * time.Second, Dur: time.Second, PCI: 44},
	}}
	if got := p.DownPCIs(); !reflect.DeepEqual(got, []int{44, 72}) {
		t.Fatalf("DownPCIs = %v, want [44 72]", got)
	}
	var nilPlan *fault.Plan
	if nilPlan.DownPCIs() != nil || nilPlan.CellDown(72, 0) || nilPlan.FallbackAt(0) {
		t.Fatal("nil plan must report no failed cells")
	}
	cases := []struct {
		pci  int
		at   time.Duration
		down bool
	}{
		{72, 500 * time.Millisecond, false},
		{72, 1500 * time.Millisecond, true},
		{72, 3 * time.Second, false},
		{44, 500 * time.Millisecond, true},
		{44, 2 * time.Second, false},
		{44, 5500 * time.Millisecond, true},
		{100, 1500 * time.Millisecond, false},
	}
	for _, tc := range cases {
		if got := p.CellDown(tc.pci, tc.at); got != tc.down {
			t.Errorf("CellDown(%d, %s) = %v, want %v", tc.pci, tc.at, got, tc.down)
		}
	}
}

// faultedBulk runs one short bulk flow with the plan armed via the
// PathConfig.Inject hook — the exact wiring the facade uses.
func faultedBulk(seed int64, plan *fault.Plan, ctrl string) transport.BulkResult {
	pc := netsim.DefaultPath(radio.NR, true)
	pc.Seed = seed
	if plan != nil {
		pc.Inject = fault.Hook(plan)
	}
	r := transport.RunBulk(pc, ctrl, 3*time.Second)
	r.CwndTrace = nil // cut the comparison payload down to the headline series
	return r
}

// TestInjectionDeterminism is the (Seed, Plan) contract at the path
// level: the same seed and plan reproduce the run exactly; a different
// seed or a different plan each produce a different run.
func TestInjectionDeterminism(t *testing.T) {
	plan := fault.BackhaulBrownout.Plan() // exercises loss, latency and rate faults
	a := faultedBulk(7, plan, "cubic")
	b := faultedBulk(7, plan, "cubic")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same (seed, plan) diverged: %+v vs %+v", a, b)
	}
	c := faultedBulk(8, plan, "cubic")
	if reflect.DeepEqual(a.RxRates, c.RxRates) {
		t.Fatal("different seeds produced an identical rate series")
	}
	d := faultedBulk(7, fault.EdgeOfCoverage.Plan(), "cubic")
	if reflect.DeepEqual(a.RxRates, d.RxRates) {
		t.Fatal("different plans produced an identical rate series")
	}
}

// TestNilPlanIsCleanPath asserts the no-op fast path: a path without an
// Inject hook behaves exactly like one was never offered.
func TestNilPlanIsCleanPath(t *testing.T) {
	clean := faultedBulk(7, nil, "cubic")
	again := faultedBulk(7, nil, "cubic")
	if !reflect.DeepEqual(clean, again) {
		t.Fatal("clean path is not reproducible")
	}
}

// TestFaultsBite asserts the injections have teeth: an outage stalls the
// receiver and a loss burst costs cubic throughput.
func TestFaultsBite(t *testing.T) {
	clean := faultedBulk(7, nil, "cubic")
	outage := faultedBulk(7, fault.Outage("blackout", time.Second, 800*time.Millisecond), "cubic")
	if outage.ThroughputBps >= clean.ThroughputBps {
		t.Fatalf("an 800 ms outage did not cost throughput: clean %.0f vs faulted %.0f",
			clean.ThroughputBps, outage.ThroughputBps)
	}
	deadAir := 0
	for _, s := range outage.RxRates {
		if s.At > time.Second && s.At < 1800*time.Millisecond && s.Bps == 0 {
			deadAir++
		}
	}
	if deadAir < 5 {
		t.Fatalf("outage window shows only %d dead 100 ms bins", deadAir)
	}
	lossy := faultedBulk(7, &fault.Plan{Name: "lossy", Faults: []fault.Fault{
		{Kind: fault.LossBurst, At: 500 * time.Millisecond, Dur: 2 * time.Second, LossRate: 0.05},
	}}, "cubic")
	if lossy.LossEvents <= clean.LossEvents {
		t.Fatalf("5%% loss burst did not raise loss events: clean %d vs lossy %d",
			clean.LossEvents, lossy.LossEvents)
	}
	if lossy.ThroughputBps >= clean.ThroughputBps {
		t.Fatalf("5%% loss burst did not cost cubic throughput: clean %.0f vs lossy %.0f",
			clean.ThroughputBps, lossy.ThroughputBps)
	}
}

func TestOutageTotalAndBrownout(t *testing.T) {
	p := &fault.Plan{Name: "mix", Faults: []fault.Fault{
		{Kind: fault.LinkOutage, At: 0, Dur: 300 * time.Millisecond},
		{Kind: fault.CellFailure, At: time.Second, Dur: 2 * time.Second, PCI: 72},
		{Kind: fault.LatencyBurst, At: 0, Dur: time.Second, Extra: 5 * time.Millisecond},
		{Kind: fault.WiredDegrade, At: 0, Dur: time.Second, Scale: 0.25},
	}}
	want := 300*time.Millisecond + 2*fault.ReestablishLatency
	if got := p.OutageTotal(); got != want {
		t.Fatalf("OutageTotal = %s, want %s", got, want)
	}
	extra, scale := p.WiredBrownout()
	if extra != 10*time.Millisecond {
		t.Fatalf("WiredBrownout extra RTT = %s, want 10ms", extra)
	}
	if scale != 4 {
		t.Fatalf("WiredBrownout jitter scale = %v, want 4", scale)
	}
}
