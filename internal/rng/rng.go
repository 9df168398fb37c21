// Package rng provides named, seeded random streams so that every fivegsim
// experiment is reproducible and adding a new random consumer does not
// perturb the draws seen by existing ones.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
)

// Source derives independent sub-streams from a root seed. Each named
// stream is an independent *rand.Rand whose seed depends only on the root
// seed and the name.
type Source struct {
	seed int64
}

// New returns a Source rooted at seed.
func New(seed int64) *Source { return &Source{seed: seed} }

// Stream returns the deterministic sub-stream for name.
func (s *Source) Stream(name string) *rand.Rand {
	return rand.New(rand.NewSource(s.StreamSeed(name)))
}

// StreamSeed returns the seed Stream(name) plants in its generator.
// Callers that keep long-lived *rand.Rand values and reseed them per run
// (hot loops where Stream's two allocations per call would show up) get
// the exact draw sequences Stream would produce.
func (s *Source) StreamSeed(name string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(s.seed) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// Shard returns the deterministic sub-stream for one shard of a named
// parallel loop: independent of Stream(name), of every other shard
// index, and of how many workers execute the shards. The internal/par
// contract keys exactly one Shard stream per par.Range.Index.
func (s *Source) Shard(name string, index int) *rand.Rand {
	return s.Stream(name + "#" + strconv.Itoa(index))
}

// ShardSeed is StreamSeed for Shard(name, index): the seed to plant in a
// preallocated generator so it replays that shard's sub-stream.
func (s *Source) ShardSeed(name string, index int) int64 {
	return s.StreamSeed(name + "#" + strconv.Itoa(index))
}

// Key is the precomputed hash of (seed, name): an allocation-free handle
// for deriving per-(shard, tick) seeds inside hot loops, where Stream's
// string concatenation would allocate. A population tick reseeds its
// preallocated per-shard *rand.Rand from Key.At, so the draws a shard
// sees depend only on (seed, name, shard, tick) — never on how many
// values earlier ticks consumed, and never on the worker count.
type Key uint64

// Key derives the handle for name, using the same FNV-1a keying as
// Stream (hash of the little-endian seed bytes followed by the name).
func (s *Source) Key(name string) Key {
	return Key(uint64(s.StreamSeed(name)))
}

// At mixes the key with a shard index and a tick number into a seed,
// splitmix64-style. Distinct (shard, tick) pairs give independent seeds;
// the +1 offsets keep shard 0 / tick 0 from collapsing onto the bare key.
func (k Key) At(shard, tick int) int64 {
	z := uint64(k) + 0x9E3779B97F4A7C15*uint64(shard+1) + 0xBF58476D1CE4E5B9*uint64(tick+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Normal draws from N(mean, std) on r, a convenience wrapper.
func Normal(r *rand.Rand, mean, std float64) float64 {
	return mean + std*r.NormFloat64()
}

// ClampedNormal draws from N(mean, std) truncated by rejection to [lo, hi].
// If the window is improbable the draw is clamped instead of looping
// forever.
func ClampedNormal(r *rand.Rand, mean, std, lo, hi float64) float64 {
	for i := 0; i < 16; i++ {
		v := Normal(r, mean, std)
		if v >= lo && v <= hi {
			return v
		}
	}
	v := Normal(r, mean, std)
	return math.Min(hi, math.Max(lo, v))
}

// LogNormal draws a log-normal with the given parameters of the underlying
// normal (mu, sigma in log space).
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(Normal(r, mu, sigma))
}

// Uniform draws uniformly from [lo, hi).
func Uniform(r *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}
