// Package par is the simulator's deterministic fan-out substrate. It
// shards an index range into contiguous pieces whose layout depends only
// on the problem size — never on the worker count — so that a caller who
// keys one rng.Source substream per shard produces bit-identical results
// whether the shards execute on one goroutine or on many.
//
// The contract every parallelized campaign loop in fivegsim follows:
//
//  1. Split the work with ShardSize (layout fixed by n alone).
//  2. Give each shard its own random substream keyed by a stable name
//     and the shard index (rng.Source.Shard).
//  3. Write each shard's output into its own pre-assigned slot and
//     merge in shard-index order (Map does this for you).
//
// Workers then only decides how many goroutines execute the shards;
// scheduling order can vary freely without changing any output.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Range is one contiguous shard of the index range [0, N).
type Range struct {
	// Index is the shard number, 0-based and dense; substream keys and
	// merge order derive from it.
	Index int
	// Lo and Hi bound the half-open item range [Lo, Hi).
	Lo, Hi int
}

// Len returns the number of items in the shard.
func (r Range) Len() int { return r.Hi - r.Lo }

// Workers normalizes a worker-count knob: 0 means GOMAXPROCS (use the
// machine), anything below 1 clamps to 1 (the serial path).
func Workers(w int) int {
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		return 1
	}
	return w
}

// ShardSize splits [0, n) into ⌈n/size⌉ contiguous shards of the given
// size (the last may be short). Fixed-size shards keep the substream
// assigned to an item stable as worker counts change, and nearly stable
// as n grows.
func ShardSize(n, size int) []Range {
	if n <= 0 {
		return nil
	}
	if size < 1 {
		size = 1
	}
	out := make([]Range, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Range{Index: len(out), Lo: lo, Hi: hi})
	}
	return out
}

// Segments builds shards from explicit segment boundaries: bounds holds
// the cut points of len(bounds)-1 consecutive half-open ranges
// ([bounds[0], bounds[1]), [bounds[1], bounds[2]), …), which must be
// non-decreasing. Unlike Shard, the pieces are caller-shaped — e.g. the
// per-cell UE groups a counting sort produces — and may be empty (an
// empty segment keeps its Index so Range.Index can stay a stable group
// id). The result is appended to out, so a caller that re-shards every
// tick can pass out[:0] of a retained slice and stay allocation-free.
func Segments(bounds []int, out []Range) []Range {
	for i := 0; i+1 < len(bounds); i++ {
		out = append(out, Range{Index: i, Lo: bounds[i], Hi: bounds[i+1]})
	}
	return out
}

// Do executes fn once per shard, at most workers concurrently, and
// returns when every shard has finished. workers follows the Workers
// convention (0 = GOMAXPROCS). With one worker — or one shard — fn runs
// inline on the calling goroutine in shard order, which is exactly the
// pre-parallel serial path: no goroutines, no synchronization.
//
// Shards are claimed dynamically, so execution order across goroutines
// is unspecified; fn must confine its writes to shard-owned state.
func Do(workers int, shards []Range, fn func(Range)) {
	_ = DoCtx(context.Background(), workers, shards, fn)
}

// DoCtx is Do with cancellation: ctx.Err() is checked before each shard
// is claimed, so a canceled context stops the fan-out within one shard
// boundary — shards already running finish, unclaimed shards never
// start. Returns the context error (wrapped verbatim) when the run was
// cut short, nil when every shard executed.
func DoCtx(ctx context.Context, workers int, shards []Range, fn func(Range)) error {
	workers = Workers(workers)
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		for _, s := range shards {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(s)
		}
		return ctx.Err()
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(shards) {
					return
				}
				fn(shards[i])
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// Map runs fn for every index in [0, n) across up to workers goroutines
// and returns the results in index order, independent of the worker
// count. Each call owns its slot, so fn may be expensive and internally
// stateful as long as distinct indices do not share mutable state.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out, _ := MapCtx(context.Background(), workers, n, fn)
	return out
}

// MapCtx is Map with cancellation (the DoCtx contract): on a canceled
// context the returned error is non-nil and unexecuted slots hold zero
// values — callers must discard the slice when err != nil.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) T) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	err := DoCtx(ctx, workers, ShardSize(n, 1), func(r Range) {
		out[r.Lo] = fn(r.Lo)
	})
	return out, err
}
