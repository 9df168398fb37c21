package pop

import (
	"sync"
	"testing"

	"fivegsim/internal/coverage"
	"fivegsim/internal/deploy"
)

// TestSurveyConcurrentWithTicks runs a sharded coverage survey while a
// population ticks on the same warmed campus — the exact sharing pattern
// a campaign service hits when a live survey overlaps a running
// simulation. Under `go test -race` (the ci.sh race step) this proves
// the read paths the two share — field-map shortlists, cell batches,
// shadow lattice — are data-race free; without -race it still pins that
// the concurrent survey is byte-identical to a serial one.
//
// The population uses a static model with dynamics off: load coupling
// deliberately mutates radio.Cell.Load between ticks, which IS a real
// race with concurrent survey readers — concurrent use is only
// documented for static-load populations, and this test draws that
// boundary as much as it checks it.
func TestSurveyConcurrentWithTicks(t *testing.T) {
	campus := deploy.New(42)
	m := DefaultModel()
	m.N = 2000
	p := New(campus, m, 42, Telemetry{}) // warms the field maps
	p.Tick(1)

	ref := coverage.RunSurvey(campus, 1500, 7, 1)
	refSamples := make([]coverage.Sample, len(ref.Samples))
	copy(refSamples, ref.Samples)

	var wg sync.WaitGroup
	wg.Add(1)
	var got *coverage.Survey
	go func() {
		defer wg.Done()
		got = coverage.RunSurvey(campus, 1500, 7, 4)
	}()
	for i := 0; i < 20; i++ {
		p.Tick(2)
	}
	wg.Wait()

	for i := range refSamples {
		if got.Samples[i] != refSamples[i] {
			t.Fatalf("sample %d differs between concurrent and serial survey", i)
		}
	}
}
