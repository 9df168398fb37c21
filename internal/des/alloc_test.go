package des

import (
	"testing"
	"time"
)

// The zero-allocation contract of the DES core: once the heap slice has
// grown to the run's peak depth, a steady-state schedule→fire cycle must
// not touch the garbage collector at all with observability detached.

func TestScheduleFireSteadyStateAllocFree(t *testing.T) {
	s := New()
	noop := func() {}
	// Grow the heap slice.
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i)*time.Microsecond, noop)
	}
	s.Run()
	avg := testing.AllocsPerRun(200, func() {
		s.After(time.Microsecond, noop)
		s.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state schedule/fire allocates %.2f allocs/op, want 0", avg)
	}
}

func TestAtArgSteadyStateAllocFree(t *testing.T) {
	s := New()
	sink := 0
	fn := func(a any) { sink += *a.(*int) }
	payload := 7
	for i := 0; i < 64; i++ {
		s.AfterArg(time.Duration(i)*time.Microsecond, fn, &payload)
	}
	s.Run()
	avg := testing.AllocsPerRun(200, func() {
		s.AfterArg(time.Microsecond, fn, &payload)
		s.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state AtArg allocates %.2f allocs/op, want 0", avg)
	}
}
