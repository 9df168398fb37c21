package coverage

import (
	"reflect"
	"testing"

	"fivegsim/internal/deploy"
)

// The drive-test survey must be bit-identical for every worker count:
// shard layout depends only on n, and each shard draws from its own
// seed-keyed RNG substream.
func TestRunParallelWorkerEquivalence(t *testing.T) {
	c := deploy.New(42)
	for _, seed := range []int64{1, 42, 7} {
		serial := RunSurvey(c, 2000, seed, 1)
		for _, workers := range []int{2, 4, 8} {
			par := RunSurvey(c, 2000, seed, workers)
			if !reflect.DeepEqual(serial.Samples, par.Samples) {
				t.Fatalf("seed %d: workers=%d survey differs from serial", seed, workers)
			}
		}
	}
}

func TestRunParallelSeedSensitivity(t *testing.T) {
	c := deploy.New(42)
	a := RunSurvey(c, 1000, 1, 4)
	b := RunSurvey(c, 1000, 2, 4)
	if reflect.DeepEqual(a.Samples, b.Samples) {
		t.Fatal("different seeds produced an identical survey")
	}
}

func TestRunParallelDegenerateSizes(t *testing.T) {
	c := deploy.New(42)
	if s := RunSurvey(c, 0, 3, 4); len(s.Samples) != 0 {
		t.Fatalf("n=0 survey has %d samples", len(s.Samples))
	}
	one := RunSurvey(c, 1, 3, 8) // workers ≫ shards
	if len(one.Samples) != 1 {
		t.Fatalf("n=1 survey has %d samples", len(one.Samples))
	}
	if !reflect.DeepEqual(one.Samples, RunSurvey(c, 1, 3, 1).Samples) {
		t.Fatal("n=1 survey differs between worker counts")
	}
}
