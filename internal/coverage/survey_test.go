package coverage

import (
	"testing"

	"fivegsim/internal/deploy"
	"fivegsim/internal/radio"
)

// raceEnabled is set by race_test.go when the race detector instruments
// the build.
var raceEnabled bool

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

// TestRunSurveyWorkersByteIdentical is the acceptance property of the
// intra-experiment sharding: one survey run at workers 1, 2 and 8
// yields byte-identical samples — Workers is a pure throughput knob.
func TestRunSurveyWorkersByteIdentical(t *testing.T) {
	c := deploy.New(1)
	ref := RunSurvey(c, 700, 7, 1)
	for _, workers := range []int{2, 8} {
		if got := RunSurvey(c, 700, 7, workers); !surveysEqual(got, ref) {
			t.Fatalf("workers=%d: survey differs from serial", workers)
		}
	}
}

// TestRunSurveyRepeatIdempotent: back-to-back surveys at workers 2, 1, 4
// and 2 draw through the generators the shards before them released,
// and a released generator is re-seeded to a fresh one's state, so every
// survey writes the identical samples.
func TestRunSurveyRepeatIdempotent(t *testing.T) {
	c := deploy.New(1)
	first := RunSurvey(c, 512, 3, 2)
	for run, workers := range []int{1, 4, 2} {
		if got := RunSurvey(c, 512, 3, workers); !surveysEqual(got, first) {
			t.Fatalf("run %d (workers=%d): survey drifted from the first", run+2, workers)
		}
	}
}

// TestRunSurveySerialAllocBound bounds what a serial survey of the
// paper's 4630 samples allocates on a warmed campus: the survey, its
// samples, the shard layout, the shard body and the source, and nothing
// per shard, because each of the 19 shards re-seeds the generator the
// one before it released. A generator per shard would add two
// allocations per shard. The race detector's sync.Pool drops a random
// share of what it is given, so the bound holds only without it.
func TestRunSurveySerialAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops generators at random")
	}
	const bound = 8
	c := deploy.New(1)
	c.WarmFieldMaps(1)
	RunSurvey(c, 4630, 1, 1) // warm any lazily built field-map buckets the samples touch
	avg := testing.AllocsPerRun(5, func() { RunSurvey(c, 4630, 1, 1) })
	t.Logf("serial 4630-sample RunSurvey: %.1f allocations", avg)
	if avg > bound {
		t.Fatalf("serial 4630-sample RunSurvey allocates %.1f times on a warmed campus, want at most %d", avg, bound)
	}
}

// BenchmarkSurvey measures the coverage walk on a warmed campus: one op
// is a serial 512-sample road survey, with the one-time campus
// construction and field-map warm outside the timer.
// TestRunSurveySerialAllocBound bounds its allocations.
func BenchmarkSurvey(b *testing.B) {
	b.ReportAllocs()
	c := deploy.New(1)
	c.WarmFieldMaps(1)
	RunSurvey(c, 512, 1, 1) // settle any remaining lazy state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := RunSurvey(c, 512, 1, 1); len(s.Samples) != 512 {
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
	RunSurvey(c, 4630, 1, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := RunSurvey(c, 4630, 1, 8); len(s.Samples) != 4630 {
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
