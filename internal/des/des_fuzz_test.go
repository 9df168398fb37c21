package des

import (
	"testing"
	"time"
)

// maxSchedOps caps the ops one FuzzScheduler input decodes into.
const maxSchedOps = 64

// fuzzBatch is how many events one batch op schedules: enough to grow
// the heap several levels deep in one op.
const fuzzBatch = 48

// schedModel is FuzzScheduler's reference: every event ever scheduled
// or reserved, in scheduling order, with the time it must fire at and
// whether it is pending in the scheduler. The scheduler's contract is
// that it always fires the pending event least in (at, scheduling
// order); seq is unique, so that order is total. A deferred event is
// scheduled when its key is reserved and pushed later: it keeps its
// place in scheduling order, and a push after its time fires it at the
// present.
type schedModel struct {
	t      *testing.T
	s      *Scheduler
	events []*modelEvent
	live   int
	// reserved holds the deferred events not yet pushed, oldest first.
	reserved []*modelEvent
}

type modelEvent struct {
	id      int
	at      time.Duration
	pending bool
	// action says what the callback does when it fires: nothing, or
	// schedule a child after a delay, at the present instant, or at a
	// past time the scheduler must clamp.
	action byte
	// key is a deferred event's reserved key.
	key Key
	// push, when set, is the deferred event this one's callback pushes.
	push *modelEvent
}

// schedule adds an event through At (past times included) or After, as
// the scheduler's clamping rules predict it.
func (m *schedModel) schedule(at time.Duration, after bool, action byte) *modelEvent {
	e := &modelEvent{id: len(m.events), pending: true, action: action}
	fire := func() { m.fire(e) }
	if after {
		d := at - m.s.Now()
		e.at = m.s.Now() + max(d, 0)
		m.s.After(d, fire)
	} else {
		e.at = max(at, m.s.Now())
		m.s.At(at, fire)
	}
	m.events = append(m.events, e)
	m.live++
	return e
}

// reserve adds a deferred event: its key is reserved now, for at (past
// times included), and pushed by a later op or callback.
func (m *schedModel) reserve(at time.Duration, action byte) {
	e := &modelEvent{id: len(m.events), at: max(at, m.s.Now()), action: action}
	e.key = m.s.Reserve(at)
	m.events = append(m.events, e)
	m.reserved = append(m.reserved, e)
}

// take removes the oldest deferred event not yet pushed, or returns nil.
func (m *schedModel) take() *modelEvent {
	if len(m.reserved) == 0 {
		return nil
	}
	e := m.reserved[0]
	m.reserved = m.reserved[1:]
	return e
}

// push hands a deferred event's key to the scheduler. Pushed after its
// time, it is due at the present.
func (m *schedModel) push(e *modelEvent) {
	e.at = max(e.at, m.s.Now())
	e.pending = true
	m.live++
	m.s.AtKey(e.key, func(any) { m.fire(e) }, nil)
}

func (m *schedModel) fire(e *modelEvent) {
	if !e.pending {
		m.t.Fatalf("event %d fired while not pending", e.id)
	}
	if now := m.s.Now(); now != e.at {
		m.t.Fatalf("event %d fired at %v, want %v", e.id, now, e.at)
	}
	for _, o := range m.events {
		if o.pending && (o.at < e.at || o.at == e.at && o.id < e.id) {
			m.t.Fatalf("event %d (at %v) fired before event %d (at %v)", e.id, e.at, o.id, o.at)
		}
	}
	e.pending = false
	m.live--
	m.checkPending()
	if e.push != nil {
		m.push(e.push)
	}
	// A child's action is the rest of this one's bits, so a chain of
	// children ends within four generations.
	rest := e.action >> 2
	switch e.action % 4 {
	case 1:
		m.schedule(m.s.Now()+time.Duration(rest)*time.Microsecond, true, rest)
	case 2:
		m.schedule(m.s.Now(), false, rest)
	case 3:
		m.schedule(m.s.Now()-time.Duration(rest)*time.Microsecond, false, 0)
	}
	m.checkPending()
}

func (m *schedModel) checkPending() {
	if m.s.Pending() != m.live {
		m.t.Fatalf("Pending() = %d, want %d live events", m.s.Pending(), m.live)
	}
}

// FuzzScheduler checks the DES heap against a sorted reference. The
// input decodes into three-byte ops: At (past times included) and After
// (negative delays included) with a callback action, a batch of
// fuzzBatch events, RunUntil, Reserve (past times included), and a push
// of the oldest reserved key, either at once or from the callback of an
// event scheduled for it. Callbacks schedule children while the
// scheduler runs, and a RunUntil or a pushing event due after a key's
// time makes its push late. Every event must fire once, at its time,
// ahead of every other pending event in (at, scheduling order); Pending
// must equal the live count after every op and fire; RunUntil(d) must
// leave no event due at or before d; and a drained heap must hold no
// fired callback in any slot. Each input runs twice: on a new scheduler,
// and on one that starts from the heap of a released scheduler that
// still had events pending.
func FuzzScheduler(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzSchedule(t, New(), data)
		fuzzSchedule(t, fromReleased(1+len(data)%97), data)
	})
}

// fromReleased returns a scheduler whose heap is one a released
// scheduler with pending events handed on.
func fromReleased(pending int) *Scheduler {
	old := New()
	for k := 0; k < pending; k++ {
		old.After(time.Duration(k%7)*time.Microsecond, func() {})
	}
	q := old.queue
	old.Release(nil)
	s := New()
	if cap(s.queue) == 0 { // the race detector's sync.Pool drops a share of what it is given
		s.queue = q[:0]
	}
	return s
}

func fuzzSchedule(t *testing.T, s *Scheduler, data []byte) {
	t.Helper()
	m := &schedModel{t: t, s: s}
	for ops := 0; len(data) >= 3 && ops < maxSchedOps; ops++ {
		op, a, b := data[0]%6, data[1], data[2]
		data = data[3:]
		us := func(x byte) time.Duration { return time.Duration(x) * time.Microsecond }
		switch op {
		case 0:
			m.schedule(us(a), false, b)
		case 1:
			m.schedule(s.Now()+us(a)-16*time.Microsecond, true, b)
		case 2:
			for k := 0; k < fuzzBatch; k++ {
				m.schedule(s.Now()+us(a)+time.Duration(k*int(b|1)%97)*time.Microsecond, true, 0)
			}
		case 3:
			deadline := s.Now() + us(a)
			s.RunUntil(deadline)
			if s.Now() != deadline {
				t.Fatalf("Now() = %v after RunUntil(%v)", s.Now(), deadline)
			}
			for _, e := range m.events {
				if e.pending && e.at <= deadline {
					t.Fatalf("event %d due at %v still pending after RunUntil(%v)", e.id, e.at, deadline)
				}
			}
		case 4:
			m.reserve(s.Now()+us(a)-16*time.Microsecond, b)
		case 5:
			switch e := m.take(); {
			case e == nil:
			case a%2 == 0:
				m.push(e)
			default:
				m.schedule(s.Now()+us(b), true, 0).push = e
			}
		}
		m.checkPending()
	}
	for e := m.take(); e != nil; e = m.take() {
		m.push(e)
	}
	s.Run()
	for _, e := range m.events {
		if e.pending {
			t.Fatalf("event %d (at %v) never fired", e.id, e.at)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("drained scheduler: Pending() = %d", s.Pending())
	}
	for i, ev := range s.queue[:cap(s.queue)] {
		if ev.fn != nil || ev.arg != nil {
			t.Fatalf("drained heap slot %d still holds a callback", i)
		}
	}
}
