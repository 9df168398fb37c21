package netsim_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"fivegsim/internal/netsim"
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
