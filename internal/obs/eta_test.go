package obs

import (
	"testing"
	"time"
)

func TestEstimateETA(t *testing.T) {
	cases := []struct {
		elapsed          time.Duration
		completed, total int
		want             time.Duration
	}{
		{10 * time.Second, 2, 4, 10 * time.Second},
		{10 * time.Second, 1, 4, 30 * time.Second},
		{10 * time.Second, 0, 4, 0},      // nothing completed: no basis
		{10 * time.Second, 4, 4, 0},      // done: nothing remains
		{10 * time.Second, 5, 4, 0},      // over-complete: clamp to done
		{-5 * time.Second, 1, 4, 0},      // negative elapsed (clock skew): clamp to 0
		{-1, 1, 1 << 30, 0},              // tiny negative elapsed, huge remaining: still 0
		{0, 1, 4, 0},                     // zero elapsed: no basis yet
		{1 << 62, 1, 1 << 40, 1<<63 - 1}, // extrapolation overflows: saturate, never wrap negative
	}
	for _, tc := range cases {
		if got := EstimateETA(tc.elapsed, tc.completed, tc.total); got != tc.want {
			t.Errorf("EstimateETA(%v, %d, %d) = %v, want %v", tc.elapsed, tc.completed, tc.total, got, tc.want)
		}
	}
}
