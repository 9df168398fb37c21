package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// checkCover asserts that ranges tile [0, n) exactly: contiguous,
// ordered, densely indexed, never empty.
func checkCover(t *testing.T, ranges []Range, n int) {
	t.Helper()
	next := 0
	for i, r := range ranges {
		if r.Index != i {
			t.Fatalf("shard %d has Index %d", i, r.Index)
		}
		if r.Lo != next {
			t.Fatalf("shard %d starts at %d, want %d", i, r.Lo, next)
		}
		if r.Len() <= 0 {
			t.Fatalf("shard %d is empty: %+v", i, r)
		}
		next = r.Hi
	}
	if next != n {
		t.Fatalf("shards cover [0,%d), want [0,%d)", next, n)
	}
}

func TestShardSizeProperty(t *testing.T) {
	prop := func(n uint16, size uint8) bool {
		ranges := ShardSize(int(n), int(size))
		if n == 0 {
			return ranges == nil
		}
		sz := int(size)
		if sz < 1 {
			sz = 1
		}
		for i, r := range ranges {
			if i < len(ranges)-1 && r.Len() != sz {
				return false
			}
			if r.Len() > sz {
				return false
			}
		}
		checkCover(t, ranges, int(n))
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkersKnob(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if Workers(1) != 1 || Workers(-3) != 1 {
		t.Fatal("Workers must clamp ≤0 (except 0) to the serial path")
	}
	if Workers(7) != 7 {
		t.Fatal("Workers must pass explicit counts through")
	}
}

func TestDoRunsEveryShardOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 64} {
		const n = 997
		var hits [n]int32
		Do(workers, ShardSize(n, 10), func(r Range) {
			for i := r.Lo; i < r.Hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	want := Map(1, 100, func(i int) int { return i * i })
	for _, workers := range []int{0, 2, 3, 16} {
		got := Map(workers, 100, func(i int) int { return i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: Map[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
	if Map(4, 0, func(i int) int { return i }) != nil {
		t.Fatal("Map with n=0 must return nil")
	}
}

// TestDoCtxCancellation: a canceled context stops the fan-out within one
// shard boundary on both the serial and the parallel path, and the
// context error surfaces verbatim.
func TestDoCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran int32
		err := DoCtx(ctx, workers, ShardSize(100, 1), func(r Range) {
			if atomic.AddInt32(&ran, 1) == 3 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: DoCtx returned %v, want context.Canceled", workers, err)
		}
		// Workers already past the ctx check when cancel fired may each
		// finish one more shard; nothing beyond that starts.
		if n := atomic.LoadInt32(&ran); n >= 100 || n < 3 {
			t.Fatalf("workers=%d: %d shards ran after cancellation at shard 3", workers, n)
		}
	}
}

func TestDoCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := int32(0)
		err := DoCtx(ctx, workers, ShardSize(10, 1), func(Range) { atomic.AddInt32(&ran, 1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: pre-canceled DoCtx returned %v", workers, err)
		}
		if ran != 0 {
			t.Fatalf("workers=%d: %d shards ran under a pre-canceled context", workers, ran)
		}
	}
}

func TestMapCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MapCtx(ctx, 4, 10, func(i int) int { return i + 1 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MapCtx returned %v, want context.Canceled", err)
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("slot %d = %d ran under a canceled context", i, v)
		}
	}
	if _, err := MapCtx(context.Background(), 4, 10, func(i int) int { return i }); err != nil {
		t.Fatalf("uncanceled MapCtx errored: %v", err)
	}
}

func TestSegmentsFromBounds(t *testing.T) {
	// Segments turns counting-sort cut points into ranges, keeping the
	// bounds index as the stable group id and preserving empty segments.
	segs := Segments([]int{0, 3, 3, 7}, nil)
	want := []Range{{Index: 0, Lo: 0, Hi: 3}, {Index: 1, Lo: 3, Hi: 3}, {Index: 2, Lo: 3, Hi: 7}}
	if len(segs) != len(want) {
		t.Fatalf("got %d segments, want %d", len(segs), len(want))
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
	if segs[1].Len() != 0 {
		t.Fatal("empty segment must have zero length")
	}

	// Append-into-retained-slice reuse must not allocate or grow.
	buf := make([]Range, 0, 8)
	out := Segments([]int{0, 1, 2}, buf[:0])
	if &out[0] != &buf[:1][0] {
		t.Fatal("Segments did not reuse the caller's backing array")
	}
	if got := Segments([]int{5}, nil); len(got) != 0 {
		t.Fatalf("single bound must yield no segments, got %d", len(got))
	}
	if got := Segments(nil, nil); len(got) != 0 {
		t.Fatalf("nil bounds must yield no segments, got %d", len(got))
	}
}
