package des

import (
	"testing"
	"time"

	"fivegsim/internal/obs"
)

// Pending reports the number of events still queued.
func (s *Scheduler) Pending() int { return len(s.queue) }

func TestSchedulerOrdering(t *testing.T) {
	s := New()
	var got []int
	s.After(3*time.Millisecond, func() { got = append(got, 3) })
	s.After(1*time.Millisecond, func() { got = append(got, 1) })
	s.After(2*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", s.Now())
	}
}

func TestSchedulerSameInstantFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.After(time.Second, tick)
		}
	}
	s.After(time.Second, tick)
	s.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", s.Now())
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", s.Now())
	}
	s.RunUntil(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("Now = %v, want 10s (clock advances to deadline)", s.Now())
	}
}

func TestSchedulerPastEventClamped(t *testing.T) {
	s := New()
	var at time.Duration = -1
	s.At(5*time.Second, func() {
		s.At(time.Second, func() { at = s.Now() }) // in the past: clamp to now
	})
	s.Run()
	if at != 5*time.Second {
		t.Fatalf("past event ran at %v, want clamped to 5s", at)
	}
}

func TestRunUntilEventExactlyAtDeadline(t *testing.T) {
	s := New()
	fired := false
	s.At(2*time.Second, func() { fired = true })
	s.RunUntil(2 * time.Second)
	if !fired {
		t.Fatal("event exactly at the deadline must fire")
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", s.Now())
	}
}

func TestAtPastTimestampWithObs(t *testing.T) {
	reg := obs.NewRegistry()
	s := New()
	var firedAt time.Duration = -1
	s.At(3*time.Second, func() {
		// Schedule into the past twice; both must clamp to now and fire.
		s.At(time.Second, func() { firedAt = s.Now() })
		s.At(-time.Hour, func() {})
	})
	s.Run()
	if firedAt != 3*time.Second {
		t.Fatalf("past event ran at %v, want clamped to 3s", firedAt)
	}
	s.Release(reg)
	if got := reg.Counter("des.events_fired").Value(); got != 3 {
		t.Fatalf("des.events_fired = %d, want 3", got)
	}
	if got := reg.Counter("des.events_scheduled").Value(); got != 3 {
		t.Fatalf("des.events_scheduled = %d, want 3", got)
	}
	if got := reg.Gauge(obs.MetricSimTime).Max(); got != int64(3*time.Second) {
		t.Fatalf("des.sim_time_ns max = %d, want %d", got, int64(3*time.Second))
	}
}

// TestPendingIsHeapLength: Pending reads the heap length, Release
// publishes it as the des.queue_depth level with the heap's high-water
// mark as its max, and no cancellation counter is registered.
func TestPendingIsHeapLength(t *testing.T) {
	reg := obs.NewRegistry()
	s := New()
	for i := 1; i <= 6; i++ {
		s.At(time.Duration(i)*time.Second, func() {})
	}
	if s.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6", s.Pending())
	}
	s.RunUntil(2 * time.Second)
	if s.Pending() != 4 {
		t.Fatalf("Pending = %d after two fires, want 4", s.Pending())
	}
	s.Release(reg)
	if got := reg.Gauge("des.queue_depth").Value(); got != 4 {
		t.Fatalf("des.queue_depth = %d, want 4", got)
	}
	if got := reg.Gauge("des.queue_depth").Max(); got != 6 {
		t.Fatalf("des.queue_depth high-water = %d, want 6", got)
	}
	if got := reg.Counter("des.events_fired").Value(); got != 2 {
		t.Fatalf("des.events_fired = %d, want 2", got)
	}
	for _, m := range reg.Snapshot() {
		if m.Name == "des.events_canceled" {
			t.Fatal("des.events_canceled is registered; the scheduler cannot cancel")
		}
	}
}

// TestReserveCountsWhenReserved: a reserved key counts in
// des.events_scheduled when it is reserved, as the event it stands for
// would have, but is in the heap, and Pending, only once AtKey pushes
// it, which counts nothing more; pushed after an event scheduled later
// for the same instant, it still fires first.
func TestReserveCountsWhenReserved(t *testing.T) {
	scheduled := func(s *Scheduler) int64 {
		reg := obs.NewRegistry()
		s.Release(reg)
		return reg.Counter("des.events_scheduled").Value()
	}
	unpushed := New()
	unpushed.Reserve(time.Second)
	unpushed.At(time.Second, func() {})
	if p, n := unpushed.Pending(), scheduled(unpushed); n != 2 || p != 1 {
		t.Fatalf("des.events_scheduled = %d and Pending = %d, want 2 and 1", n, p)
	}

	s := New()
	var got []string
	k := s.Reserve(time.Second)
	s.At(time.Second, func() { got = append(got, "later") })
	s.AtKey(k, func(any) { got = append(got, "reserved") }, nil)
	if s.Pending() != 2 {
		t.Fatalf("after AtKey: Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if len(got) != 2 || got[0] != "reserved" {
		t.Fatalf("fired %v, want the reserved key first", got)
	}
	if n := scheduled(s); n != 2 {
		t.Fatalf("after AtKey and the run: des.events_scheduled = %d, want 2", n)
	}
}

// TestReleasePublishesOnce: a second Release adds nothing to any
// registry, so paths that share a scheduler count its events once.
func TestReleasePublishesOnce(t *testing.T) {
	s := New()
	for i := 1; i <= 3; i++ {
		s.At(time.Duration(i)*time.Second, func() {})
	}
	s.Run()
	first, second := obs.NewRegistry(), obs.NewRegistry()
	s.Release(first)
	s.Release(first)
	s.Release(second)
	if got := first.Counter("des.events_fired").Value(); got != 3 {
		t.Fatalf("des.events_fired = %d after three Releases, want 3", got)
	}
	if m := second.Snapshot(); len(m) != 0 {
		t.Fatalf("a second Release published %v, want nothing", m)
	}
}

// TestReleaseNilPublishesNothing: Release(nil) publishes nothing and
// allocates nothing. A run that schedules, fires and releases on a warm
// heap allocates only the Scheduler that New returns.
func TestReleaseNilPublishesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a share of the heaps it is given")
	}
	noop := func() {}
	run := func() {
		s := New()
		s.At(time.Second, noop)
		s.Run()
		s.Release(nil)
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 1 {
		t.Fatalf("New, one event and Release(nil) allocate %v times, want 1 (the Scheduler)", avg)
	}
}

func TestSchedulerStop(t *testing.T) {
	s := New()
	n := 0
	for i := 1; i <= 10; i++ {
		i := i
		s.At(time.Duration(i)*time.Second, func() {
			n++
			if i == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if n != 3 {
		t.Fatalf("ran %d events before stop, want 3", n)
	}
	if s.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", s.Pending())
	}
}
