package rng

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// raceEnabled is set by race_test.go when the race detector instruments
// the build.
var raceEnabled bool

func TestStreamDeterminism(t *testing.T) {
	a := New(42).Stream("coverage")
	b := New(42).Stream("coverage")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed+name must produce identical streams")
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := New(42).Stream("coverage")
	b := New(42).Stream("handoff")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names look identical (%d/100 equal draws)", same)
	}
}

func TestSeedChangesStream(t *testing.T) {
	a := New(1).Stream("x")
	b := New(2).Stream("x")
	if a.Float64() == b.Float64() && a.Float64() == b.Float64() {
		t.Fatal("different seeds should give different streams")
	}
}

func TestClampedNormalBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := New(seed).Stream("t")
		for i := 0; i < 50; i++ {
			v := ClampedNormal(r, 0, 10, -1, 1)
			if v < -1 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(7).Stream("moments")
	n := 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := Normal(r, 5, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sum2/float64(n) - mean*mean)
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("mean = %v, want ≈5", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Fatalf("std = %v, want ≈2", std)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(9).Stream("u")
	for i := 0; i < 1000; i++ {
		v := Uniform(r, 3, 4)
		if v < 3 || v >= 4 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestKeyDeterministicAndNamed(t *testing.T) {
	a := New(42).Key("pop.ue")
	b := New(42).Key("pop.ue")
	if a != b {
		t.Fatal("same (seed, name) produced different keys")
	}
	if New(42).Key("pop.walk") == a {
		t.Fatal("different names produced the same key")
	}
	if New(7).Key("pop.ue") == a {
		t.Fatal("different seeds produced the same key")
	}
}

func TestKeyAtDistinctSeeds(t *testing.T) {
	// Distinct (shard, tick) pairs must give distinct seeds — the
	// population tick's per-shard reseed depends on it. Collisions over
	// a realistic grid would mean correlated shard streams.
	k := New(42).Key("pop.ue")
	seen := make(map[int64]bool)
	for shard := 0; shard < 64; shard++ {
		for tick := 0; tick < 256; tick++ {
			s := k.At(shard, tick)
			if seen[s] {
				t.Fatalf("seed collision at shard %d tick %d", shard, tick)
			}
			seen[s] = true
		}
	}
	if k.At(0, 0) == int64(k) {
		t.Fatal("At(0,0) collapsed onto the bare key")
	}
}

// TestReleasedStreamReplaysFresh: a generator that drew a mix of values
// and was released carries the next stream exactly as a fresh generator
// would: Seed resets the source and the Rand's read position, and
// nothing else of a Rand carries over.
func TestReleasedStreamReplaysFresh(t *testing.T) {
	src := New(7)
	used := src.Stream("used")
	for i := 0; i < 1000; i++ {
		used.Int63()
		used.NormFloat64()
		used.Perm(5)
	}
	used.Read(make([]byte, 3)) // leaves buffered bytes in the Rand
	Release(used)
	got := src.Stream("next")
	if got != used && !raceEnabled {
		t.Fatal("Stream built a new generator while a released one was cached")
	}
	want := rand.New(rand.NewSource(src.StreamSeed("next")))
	gb, wb := make([]byte, 7), make([]byte, 7)
	for i := 0; i < 5000; i++ {
		got.Read(gb)
		want.Read(wb)
		g := []float64{float64(got.Int63()), got.Float64(), got.NormFloat64(), got.ExpFloat64(), float64(got.Intn(1000))}
		w := []float64{float64(want.Int63()), want.Float64(), want.NormFloat64(), want.ExpFloat64(), float64(want.Intn(1000))}
		if !slices.Equal(g, w) || !slices.Equal(got.Perm(6), want.Perm(6)) || !bytes.Equal(gb, wb) {
			t.Fatalf("draw %d of the re-seeded generator differs from a fresh one: %v, want %v", i, g, w)
		}
	}
}
