package pop

import (
	"testing"
	"time"

	"fivegsim/internal/deploy"
	"fivegsim/internal/obs"
	"fivegsim/internal/traffic"
)

// Telemetry-soundness suite: the sharded pop.* counters must add up to
// the population invariants (every UE attaches or is in outage every
// tick, granted PRBs never exceed demand), stay identical across worker
// counts (the merge runs in fixed shard order), and drive the tracer
// and progress hook once per tick.

func counterValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name && m.Kind == "counter" {
			return int64(m.Value)
		}
	}
	t.Fatalf("registry has no counter %q", name)
	return 0
}

func TestTelemetryCounterInvariants(t *testing.T) {
	reg := obs.NewRegistry()
	campus := deploy.New(42)
	m := popModelForTest(500, 10)
	p := runFull(campus, m, 42, 1, Telemetry{Obs: reg})

	if ticks := counterValue(t, reg, "pop.ticks"); ticks != int64(m.Ticks) {
		t.Fatalf("pop.ticks = %d, want %d", ticks, m.Ticks)
	}
	attached := counterValue(t, reg, "pop.ue_attached")
	outage := counterValue(t, reg, "pop.ue_outage")
	if ueTicks := int64(p.Len()) * int64(m.Ticks); attached+outage != ueTicks {
		t.Fatalf("attached %d + outage %d != UE-ticks %d", attached, outage, ueTicks)
	}
	if attached == 0 {
		t.Fatal("no UE ever attached")
	}
	demand := counterValue(t, reg, "pop.prb_demand")
	granted := counterValue(t, reg, "pop.prb_granted")
	if granted > demand {
		t.Fatalf("granted PRBs %d exceed demand %d", granted, demand)
	}
	if granted == 0 {
		t.Fatal("scheduler granted nothing")
	}
	moved := counterValue(t, reg, "pop.ue_moved")
	if moved == 0 {
		t.Fatal("walking population never moved")
	}
	var bytes int64
	for c := traffic.Class(0); c < traffic.NumClasses; c++ {
		bytes += counterValue(t, reg, "pop.bytes_delivered{class="+c.String()+"}")
	}
	if bytes == 0 {
		t.Fatal("no bytes delivered")
	}
	// The tick-latency histogram saw exactly one sample per tick.
	for _, m2 := range reg.Snapshot() {
		if m2.Name == "pop.tick_wall_us" {
			if m2.Count != int64(m.Ticks) {
				t.Fatalf("pop.tick_wall_us count %d, want %d", m2.Count, m.Ticks)
			}
			return
		}
	}
	t.Fatal("registry has no pop.tick_wall_us histogram")
}

// TestTelemetryWorkerEquivalence: counter totals are part of the
// determinism contract — identical for every Workers value.
func TestTelemetryWorkerEquivalence(t *testing.T) {
	totals := func(workers int) map[string]int64 {
		reg := obs.NewRegistry()
		campus := deploy.New(7)
		runFull(campus, popModelForTest(600, 8), 7, workers, Telemetry{Obs: reg})
		out := map[string]int64{}
		for _, m := range reg.Snapshot() {
			if m.Kind == "counter" {
				out[m.Name] = int64(m.Value)
			}
		}
		return out
	}
	base := totals(1)
	if len(base) == 0 {
		t.Fatal("serial run registered no counters")
	}
	for _, workers := range []int{2, 8} {
		got := totals(workers)
		for name, want := range base {
			if got[name] != want {
				t.Fatalf("workers %d: %s = %d, want %d (serial)", workers, name, got[name], want)
			}
		}
		if len(got) != len(base) {
			t.Fatalf("workers %d registered %d counters, serial %d", workers, len(got), len(base))
		}
	}
}

// TestTelemetryStaticPopulationNoMovement: a zero-speed population
// reports zero moved UEs and zero hand-offs over the whole run.
func TestTelemetryStaticPopulationNoMovement(t *testing.T) {
	reg := obs.NewRegistry()
	m := popModelForTest(300, 6)
	m.MaxSpeedKmh = 0
	runFull(deploy.New(3), m, 3, 1, Telemetry{Obs: reg})
	if moved := counterValue(t, reg, "pop.ue_moved"); moved != 0 {
		t.Fatalf("static population moved %d UE-ticks", moved)
	}
	if ho := counterValue(t, reg, "pop.handoffs"); ho != 0 {
		t.Fatalf("static population handed off %d times", ho)
	}
}

// TestTelemetryTraceAndProgress: one pop.tick span and one OnTick
// callback per tick, with monotonically advancing tick counters.
func TestTelemetryTraceAndProgress(t *testing.T) {
	tracer := obs.NewTracer(64)
	var ticks []int
	m := popModelForTest(200, 5)
	runFull(deploy.New(1), m, 1, 1, Telemetry{
		Trace:  tracer,
		OnTick: func(tick, total int) { ticks = append(ticks, tick); _ = total },
	})
	events := tracer.Events()
	if len(events) != m.Ticks {
		t.Fatalf("tracer holds %d spans, want %d", len(events), m.Ticks)
	}
	for i, e := range events {
		if e.Name != "pop.tick" || e.Cat != "pop" {
			t.Fatalf("span %d is %s/%s, want pop.tick/pop", i, e.Name, e.Cat)
		}
		if want := time.Duration(i) * m.TickDur; e.Sim != want {
			t.Fatalf("span %d anchored at sim %v, want %v", i, e.Sim, want)
		}
	}
	if len(ticks) != m.Ticks {
		t.Fatalf("OnTick fired %d times, want %d", len(ticks), m.Ticks)
	}
	for i, tk := range ticks {
		if tk != i+1 {
			t.Fatalf("OnTick sequence %v, want 1..%d", ticks, m.Ticks)
		}
	}
}

// TestInstrumentDetach: re-instrumenting with the zero Telemetry drops
// back to the uninstrumented fast path — the old registry stops moving.
func TestInstrumentDetach(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(deploy.New(5), popModelForTest(200, 10), 5)
	p.Instrument(Telemetry{Obs: reg})
	p.Tick(1)
	p.Tick(1)
	before := counterValue(t, reg, "pop.ticks")
	if before != 2 {
		t.Fatalf("pop.ticks = %d after 2 instrumented ticks", before)
	}
	p.Instrument(Telemetry{})
	p.Tick(1)
	if after := counterValue(t, reg, "pop.ticks"); after != before {
		t.Fatalf("detached population still counts: %d -> %d", before, after)
	}
}
