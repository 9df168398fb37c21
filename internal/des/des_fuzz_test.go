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

// schedModel is FuzzScheduler's reference: every event ever scheduled,
// in scheduling order, with the time it must fire at and whether it is
// still pending. Firing in (at, scheduling order) is the scheduler's
// contract; seq is unique, so that order is total.
type schedModel struct {
	t      *testing.T
	s      *Scheduler
	events []*modelEvent
	live   int
	// lastAt and lastID are the key of the last event fired: every fire
	// must come strictly after it.
	lastAt time.Duration
	lastID int
	fired  int
}

type modelEvent struct {
	id      int
	at      time.Duration
	pending bool
	// action says what the callback does when it fires: nothing, or
	// schedule a child after a delay, at the present instant, or at a
	// past time the scheduler must clamp.
	action byte
}

// schedule adds an event through At (past times included) or After, as
// the scheduler's clamping rules predict it.
func (m *schedModel) schedule(at time.Duration, after bool, action byte) {
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
}

func (m *schedModel) fire(e *modelEvent) {
	if !e.pending {
		m.t.Fatalf("event %d fired twice", e.id)
	}
	if now := m.s.Now(); now != e.at {
		m.t.Fatalf("event %d fired at %v, want %v", e.id, now, e.at)
	}
	if m.fired > 0 && (e.at < m.lastAt || e.at == m.lastAt && e.id <= m.lastID) {
		m.t.Fatalf("event %d (at %v) fired after event %d (at %v)", e.id, e.at, m.lastID, m.lastAt)
	}
	m.lastAt, m.lastID = e.at, e.id
	m.fired++
	e.pending = false
	m.live--
	m.checkPending()
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
// fuzzBatch events, and RunUntil. Callbacks schedule children while the
// scheduler runs. Every event must fire once, at its time, strictly
// after the previous fire in (at, scheduling order); Pending must equal
// the live count after every op and fire; RunUntil(d) must leave no
// event due at or before d; and a drained heap must hold no fired
// callback in any slot.
func FuzzScheduler(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		m := &schedModel{t: t, s: s}
		for ops := 0; len(data) >= 3 && ops < maxSchedOps; ops++ {
			op, a, b := data[0]%4, data[1], data[2]
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
			}
			m.checkPending()
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
	})
}
