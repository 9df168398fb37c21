package obs

import (
	"math"
	"time"
)

// EstimateETA extrapolates the remaining wall time from completed work:
// elapsed/completed × remaining. Returns 0 while nothing has completed
// (no basis) and 0 when everything has. The result is clamped to
// [0, math.MaxInt64]: a negative elapsed (clock skew, an event stamped
// before its campaign's start) or a float→Duration overflow must never
// surface as a negative countdown on the /progress endpoint.
func EstimateETA(elapsed time.Duration, completed, total int) time.Duration {
	if elapsed <= 0 || completed <= 0 || total <= completed {
		return 0
	}
	eta := float64(elapsed) / float64(completed) * float64(total-completed)
	if eta >= math.MaxInt64 {
		return math.MaxInt64
	}
	if eta < 0 {
		return 0
	}
	return time.Duration(eta)
}
