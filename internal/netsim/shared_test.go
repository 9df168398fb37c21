package netsim_test

import (
	"maps"
	"reflect"
	"sync"
	"testing"
	"time"

	"fivegsim/internal/netsim"
	"fivegsim/internal/obs"
	"fivegsim/internal/radio"
	"fivegsim/internal/transport"
)

// TestSlabCacheSharedAcrossGoroutines: closed paths hand what they grew
// (packet slabs, generators, scheduler heaps and a connection's SACK
// storage) to paths on other goroutines, as par's workers and fgserve's
// pool do. Runs that reuse one another's storage, concurrently, report
// exactly what a run on its own reports, loss runs and congestion
// window traces included; under -race this also checks that storage
// moves between goroutines only through the caches.
func TestSlabCacheSharedAcrossGoroutines(t *testing.T) {
	cfg := netsim.DefaultPath(radio.NR, true)
	t.Run("RunUDP", func(t *testing.T) {
		type udpRun struct {
			Result netsim.UDPResult
			Lost   []netsim.LossRun
		}
		sharedRunsMatchSolo(t, func() udpRun {
			var r udpRun
			r.Result = netsim.RunUDP(cfg, 1.2e9, 100*time.Millisecond, func(run netsim.LossRun) {
				r.Lost = append(r.Lost, run)
			})
			return r
		}, func(r udpRun) bool { return len(r.Lost) > 0 })
	})
	t.Run("RunBulk", func(t *testing.T) {
		sharedRunsMatchSolo(t, func() transport.BulkResult {
			return transport.RunBulk(cfg, "bbr", 500*time.Millisecond)
		}, func(r transport.BulkResult) bool { return r.LossEvents > 0 })
	})
}

// sharedRunsMatchSolo runs run on its own, then three times on each of
// four goroutines at once, and fails for every run that differs from
// the first. lossy must hold for the first run, so the runs exercise
// the storage of a loss episode.
func sharedRunsMatchSolo[R any](t *testing.T, run func() R, lossy func(R) bool) {
	const workers, runs = 4, 3
	want := run()
	if !lossy(want) {
		t.Fatal("the run lost nothing: its loss-path storage went unexercised")
	}
	var wg sync.WaitGroup
	got := make([][]R, workers)
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				got[w] = append(got[w], run())
			}
		}(w)
	}
	wg.Wait()
	for w, rs := range got {
		for i, r := range rs {
			if !reflect.DeepEqual(r, want) {
				t.Errorf("worker %d run %d: %+v, want %+v", w, i, r, want)
			}
		}
	}
}

// TestTracedPathsShareRegistry: paths on four goroutines at once publish
// their counts into one registry as each closes, as the paths of an
// experiment's sweep do into its registry when Workers > 1. Every
// counter total equals that of the same runs made one after another;
// under -race this also checks that publishing on Close is the only
// write a path makes to a shared registry from its goroutine.
func TestTracedPathsShareRegistry(t *testing.T) {
	const workers = 4
	runs := func(reg *obs.Registry) {
		cfg := netsim.DefaultPath(radio.NR, true)
		cfg.Obs = reg
		netsim.RunUDP(cfg, 1.2e9, 100*time.Millisecond, nil)
		transport.RunBulk(cfg, "cubic", 100*time.Millisecond)
	}
	serial := obs.NewRegistry()
	for w := 0; w < workers; w++ {
		runs(serial)
	}
	shared := obs.NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs(shared)
		}()
	}
	wg.Wait()
	want, got := counterTotals(serial), counterTotals(shared)
	if want["des.events_fired"] == 0 || want["netsim.pkt_dropped{hop=bottleneck}"] == 0 || want["cc.acks{algo=cubic}"] == 0 {
		t.Fatalf("the serial runs left counters unexercised: %v", want)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("counter totals of concurrent runs differ from serial ones:\nconcurrent: %v\nserial:     %v", got, want)
	}
}

// counterTotals returns every counter of reg by name.
func counterTotals(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, m := range reg.Snapshot() {
		if m.Kind == "counter" {
			out[m.Name] = m.Value
		}
	}
	return out
}
