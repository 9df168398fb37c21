package des

import (
	"testing"
	"time"
)

// TestAtArgDelivery: arg-carrying events fire with their payload and
// interleave with plain events in strict (at, seq) order.
func TestAtArgDelivery(t *testing.T) {
	s := New()
	var got []int
	record := func(a any) { got = append(got, *a.(*int)) }
	one, two, three := 1, 2, 3
	s.AtArg(2*time.Millisecond, record, &two)
	s.At(time.Millisecond, func() { got = append(got, one) })
	s.AfterArg(3*time.Millisecond, record, &three)
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestFiringOrderMatchesReferenceHeap drives a mixed schedule workload
// with repeated instants and checks the firing order against an
// insertion-sorted reference — the determinism contract the 4-ary heap
// must honor.
func TestFiringOrderMatchesReferenceHeap(t *testing.T) {
	s := New()
	type ref struct {
		at time.Duration
		id int
	}
	var want []ref
	var got []int
	ats := []int{7, 3, 3, 9, 1, 4, 4, 4, 8, 2, 6, 5, 0, 9, 3}
	for id, a := range ats {
		a, i := time.Duration(a)*time.Millisecond, id
		s.At(a, func() { got = append(got, i) })
		want = append(want, ref{at: a, id: i})
	}
	s.Run()
	var wantIDs []int
	// Stable sort by (at, insertion order) = (at, seq).
	for at := time.Duration(0); at <= 9*time.Millisecond; at += time.Millisecond {
		for _, r := range want {
			if r.at == at {
				wantIDs = append(wantIDs, r.id)
			}
		}
	}
	if len(got) != len(wantIDs) {
		t.Fatalf("fired %d, want %d", len(got), len(wantIDs))
	}
	for i := range wantIDs {
		if got[i] != wantIDs[i] {
			t.Fatalf("firing order %v, want %v", got, wantIDs)
		}
	}
}

// TestHeapCapacityBounded: a steady schedule/fire loop must stabilize on
// a tiny heap slice instead of growing it. The scheduler starts from an
// empty heap: New may hand out one that another test released.
func TestHeapCapacityBounded(t *testing.T) {
	s := &Scheduler{}
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 10_000 {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(0, tick)
	s.Run()
	if c := cap(s.queue); c > 4 {
		t.Fatalf("heap slice grew to capacity %d on a 1-deep workload", c)
	}
	if n != 10_000 {
		t.Fatalf("ran %d events", n)
	}
}

// raceEnabled is set by race_test.go when the race detector instruments
// the build.
var raceEnabled bool

// TestReleaseClearsHeap: a released scheduler's heap is cleared to its
// capacity before it is cached, so it pins no callback or payload of the
// released run, even of events still pending; New starts from it; and a
// second Release does nothing.
func TestReleaseClearsHeap(t *testing.T) {
	old := New()
	payload := new(int)
	for i := 0; i < 100; i++ {
		old.AfterArg(time.Duration(i)*time.Microsecond, func(any) {}, payload)
	}
	old.RunUntil(40 * time.Microsecond) // leaves 59 events pending
	q := old.queue[:cap(old.queue)]
	old.Release(nil)
	for i, ev := range q {
		if ev.at != 0 || ev.seq != 0 || ev.fn != nil || ev.arg != nil {
			t.Fatalf("released heap slot %d of %d holds an event at %v, want a zero event", i, len(q), ev.at)
		}
	}
	if old.queue != nil || old.Pending() != 0 {
		t.Fatalf("released scheduler keeps %d events", old.Pending())
	}
	old.Release(nil)

	if raceEnabled {
		return // the race detector's sync.Pool drops a share of what it is given
	}
	s := New()
	if len(s.queue) != 0 || cap(s.queue) != len(q) || &s.queue[:1][0] != &q[0] {
		t.Fatalf("New started from a heap of length %d and capacity %d, want the released one (capacity %d)",
			len(s.queue), cap(s.queue), len(q))
	}
}
