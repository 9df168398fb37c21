package fivegsim

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestOnProgressEventStream: the campaign engine emits one start and one
// finish event per experiment in completion order, with monotone
// completion counts, correct totals and ETAs derivable from completed
// work, and one result event per experiment in paper order, each after
// its own finish. Every call is serialized (the plain append below is
// the race detector's witness).
func TestOnProgressEventStream(t *testing.T) {
	delays := map[string]time.Duration{"Z90": 30 * time.Millisecond, "Z91": 10 * time.Millisecond, "Z92": 0}
	for id, d := range delays {
		id, d := id, d
		tempExperiment(t, id, func(cfg Config) Result {
			time.Sleep(d)
			return Result{ID: id, Title: id}
		})
	}
	cfg := QuickConfig()
	cfg.Workers = 3
	var events []Event
	cfg.OnEvent = func(ev Event) { events = append(events, ev) }
	if _, err := RunExperimentsContext(context.Background(), cfg, "Z90", "Z91", "Z92"); err != nil {
		t.Fatal(err)
	}

	starts, finishes := 0, 0
	lastCompleted := 0
	finished := map[string]bool{}
	var results []string
	for _, ev := range events {
		if ev.Total != 3 {
			t.Fatalf("event %+v has Total %d, want 3", ev, ev.Total)
		}
		switch ev.Kind {
		case EventStart:
			starts++
		case EventFinish:
			finishes++
			finished[ev.Experiment] = true
			if ev.Completed != lastCompleted+1 {
				t.Fatalf("finish events out of order: completed %d after %d", ev.Completed, lastCompleted)
			}
			lastCompleted = ev.Completed
			if ev.Failed {
				t.Fatalf("experiment %s reported failed", ev.Experiment)
			}
			if ev.Completed < 3 && ev.ETA <= 0 {
				t.Fatalf("mid-campaign finish carries no ETA: %+v", ev)
			}
			if ev.Completed == 3 && ev.ETA != 0 {
				t.Fatalf("final finish still carries an ETA: %+v", ev)
			}
		case EventResult:
			results = append(results, ev.Experiment)
			if !finished[ev.Experiment] || ev.Result == nil || ev.Result.ID != ev.Experiment || ev.Completed != len(results) {
				t.Fatalf("result event %+v out of place after results %v", ev, results)
			}
		}
	}
	if starts != 3 || finishes != 3 {
		t.Fatalf("saw %d starts and %d finishes, want 3 each", starts, finishes)
	}
	if got := strings.Join(results, ","); got != "Z90,Z91,Z92" {
		t.Fatalf("result events %s, want paper order Z90,Z91,Z92", got)
	}
}

// TestOnProgressFailedFlag: a crashing experiment still finishes — with
// Failed set — so progress consumers never hang on a wedged count.
func TestOnProgressFailedFlag(t *testing.T) {
	tempExperiment(t, "Z97", func(cfg Config) Result {
		panic("synthetic crash")
	})
	cfg := QuickConfig()
	var failed []string
	cfg.OnEvent = func(ev Event) {
		if ev.Kind == EventFinish && ev.Failed {
			failed = append(failed, ev.Experiment)
		}
	}
	if _, err := RunExperimentsContext(context.Background(), cfg, "Z97"); err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != "Z97" {
		t.Fatalf("failed finishes %v, want [Z97]", failed)
	}
}

// TestOnProgressPopulationTicks: the population experiments surface
// their inner scheduling ticks through the same stream (the
// exp_population wiring of pop.Telemetry.OnTick).
func TestOnProgressPopulationTicks(t *testing.T) {
	if testing.Short() {
		t.Skip("population run is not short-mode work")
	}
	cfg := QuickConfig()
	var ticks []Event
	cfg.OnEvent = func(ev Event) {
		if ev.Kind == EventTick {
			ticks = append(ticks, ev)
		}
	}
	if _, err := RunExperimentsContext(context.Background(), cfg, "X12"); err != nil {
		t.Fatal(err)
	}
	if len(ticks) == 0 {
		t.Fatal("X12 emitted no tick events")
	}
	for i, ev := range ticks {
		if ev.Experiment != "X12" || ev.Ticks == 0 {
			t.Fatalf("tick event %+v malformed", ev)
		}
		if ev.Tick != i+1 {
			t.Fatalf("tick sequence broken at %d: %+v", i, ev)
		}
	}
	if last := ticks[len(ticks)-1]; last.Tick != last.Ticks {
		t.Fatalf("last tick event %d/%d, want complete", last.Tick, last.Ticks)
	}
}

// TestRunContextSeesOnlyTicks: a single run hands cfg.OnEvent to the
// experiment as is — its ticks arrive, and no start, finish or result
// event does.
func TestRunContextSeesOnlyTicks(t *testing.T) {
	tempExperiment(t, "Z96", func(cfg Config) Result {
		cfg.OnEvent(Event{Kind: EventTick, Experiment: "Z96", Tick: 1, Ticks: 1})
		return Result{ID: "Z96", Title: "Z96"}
	})
	cfg := QuickConfig()
	var kinds []EventKind
	cfg.OnEvent = func(ev Event) { kinds = append(kinds, ev.Kind) }
	if _, err := RunContext(context.Background(), "Z96", cfg); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 1 || kinds[0] != EventTick {
		t.Fatalf("RunContext delivered %v, want one tick", kinds)
	}
}
