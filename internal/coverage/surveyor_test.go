package coverage

import (
	"testing"

	"fivegsim/internal/deploy"
	"fivegsim/internal/radio"
)

func surveysEqual(a, b *Survey) bool {
	if len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			return false
		}
	}
	return true
}

// TestSurveyorWorkersByteIdentical is the acceptance property of the
// intra-experiment sharding: one Surveyor run at workers 1, 2 and 8
// yields byte-identical samples — Workers is a pure throughput knob.
func TestSurveyorWorkersByteIdentical(t *testing.T) {
	c := deploy.New(1)
	ref := NewSurveyor(c, 700, 7).Run(1)
	refCopy := make([]Sample, len(ref.Samples))
	copy(refCopy, ref.Samples)
	for _, workers := range []int{1, 2, 8} {
		got := NewSurveyor(c, 700, 7).Run(workers)
		for i := range refCopy {
			if got.Samples[i] != refCopy[i] {
				t.Fatalf("workers=%d: sample %d differs", workers, i)
			}
		}
	}
}

// TestSurveyorRepeatRunIdempotent: every Run of one Surveyor reseeds the
// shard generators, so back-to-back runs (even at different worker
// counts) rewrite the identical survey.
func TestSurveyorRepeatRunIdempotent(t *testing.T) {
	c := deploy.New(1)
	sv := NewSurveyor(c, 512, 3)
	first := make([]Sample, 512)
	copy(first, sv.Run(2).Samples)
	for run, workers := range []int{1, 4, 2} {
		got := sv.Run(workers)
		for i := range first {
			if got.Samples[i] != first[i] {
				t.Fatalf("run %d (workers=%d): sample %d drifted", run+2, workers, i)
			}
		}
	}
}

// TestSurveyorSerialRunAllocFree pins the steady-state contract the
// Survey benchmark measures: on a warmed campus, a serial re-run of a
// prebuilt Surveyor allocates nothing.
func TestSurveyorSerialRunAllocFree(t *testing.T) {
	c := deploy.New(1)
	c.WarmFieldMaps(1)
	sv := NewSurveyor(c, 256, 1)
	sv.Run(1) // warm any lazily built field-map buckets the samples touch
	avg := testing.AllocsPerRun(10, func() { sv.Run(1) })
	if avg != 0 {
		t.Fatalf("serial Surveyor.Run allocates on warmed campus: %.2f allocs/run", avg)
	}
}

// BenchmarkSurvey measures the coverage walk in steady state: one op is a
// 512-sample road survey re-run through a prebuilt Surveyor on a warmed
// campus — the batched-kernel sampling path alone, with the one-time
// campus construction and field-map warm outside the timer. It reads
// 0 allocs/op; TestSurveyorSerialRunAllocFree enforces that.
func BenchmarkSurvey(b *testing.B) {
	b.ReportAllocs()
	c := deploy.New(1)
	c.WarmFieldMaps(1)
	sv := NewSurveyor(c, 512, 1)
	sv.Run(1) // settle any remaining lazy state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sv.Run(1)
		if len(s.Samples) != 512 {
			b.Fatal("short survey")
		}
	}
}

// BenchmarkSurveyWorkers8 measures the sharded survey at the paper's full
// 4630-sample size across 8 workers — the intra-experiment sharding win
// on multi-core hosts. Goroutine start-up allocates, so it has no
// allocation contract.
func BenchmarkSurveyWorkers8(b *testing.B) {
	b.ReportAllocs()
	c := deploy.New(1)
	c.WarmFieldMaps(8)
	sv := NewSurveyor(c, 4630, 1)
	sv.Run(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := sv.Run(8); len(s.Samples) != 4630 {
			b.Fatal("short survey")
		}
	}
}

// TestGridMapWorkersMatchesSerial: the rasterizer draws no randomness,
// but the sharded variant must still tile the identical grid.
func TestGridMapWorkersMatchesSerial(t *testing.T) {
	c := deploy.New(1)
	want := GridMap(c, radio.NR, 60, 1)
	got := GridMap(c, radio.NR, 60, 4)
	if len(got) != len(want) {
		t.Fatalf("row count %d != %d", len(got), len(want))
	}
	for y := range want {
		for x := range want[y] {
			if got[y][x] != want[y][x] {
				t.Fatalf("grid cell (%d,%d) differs between workers=1 and workers=4", x, y)
			}
		}
	}
}
