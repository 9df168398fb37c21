package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// TraceEvent is one complete span. Sim holds the simulated start; Wall
// the wall-clock offset since the tracer was created. The duration is
// SimDur for spans measured in simulated time, WallDur for spans
// measured in wall time (e.g. a population tick, which consumes real
// CPU at one simulated instant).
type TraceEvent struct {
	Name    string
	Cat     string
	Sim     time.Duration
	SimDur  time.Duration
	Wall    time.Duration
	WallDur time.Duration
}

// Tracer records events into a bounded ring buffer. It is safe for
// concurrent use; a nil *Tracer is a no-op. When the ring wraps, the
// oldest events are overwritten and Dropped counts them.
type Tracer struct {
	mu    sync.Mutex
	buf   []TraceEvent
	next  int
	total uint64
	wall0 time.Time
}

// DefaultTraceCapacity bounds the ring when NewTracer is given cap ≤ 0.
const DefaultTraceCapacity = 1 << 16

// NewTracer returns a tracer holding at most capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]TraceEvent, 0, capacity), wall0: time.Now()}
}

// Emit records one event. Nil-safe.
func (t *Tracer) Emit(e TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	e.Wall = time.Since(t.wall0)
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
		t.next = (t.next + 1) % cap(t.buf)
	}
	t.total++
	t.mu.Unlock()
}

// Span records a complete span in simulated time. Nil-safe.
func (t *Tracer) Span(name, cat string, simStart, simDur time.Duration) {
	t.Emit(TraceEvent{Name: name, Cat: cat, Sim: simStart, SimDur: simDur})
}

// WallSpan records a span anchored at simulated time simStart whose
// duration is wall-clock CPU time. Nil-safe.
func (t *Tracer) WallSpan(name, cat string, simStart, wallDur time.Duration) {
	t.Emit(TraceEvent{Name: name, Cat: cat, Sim: simStart, WallDur: wallDur})
}

// Events returns the buffered events oldest-first. Nil-safe.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, len(t.buf))
	if len(t.buf) == cap(t.buf) {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= uint64(cap(t.buf)) {
		return 0
	}
	return t.total - uint64(cap(t.buf))
}

// chromeEvent is the Trace Event Format record that chrome://tracing and
// Perfetto load. Timestamps and durations are microseconds; we map the
// simulated clock onto ts, so the viewer's timeline is simulation time.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the buffered events in Chrome Trace Event
// Format (load via chrome://tracing or https://ui.perfetto.dev). The
// timeline axis is simulated time; wall-clock offsets ride along in
// args. Categories map to tids so each substrate gets its own track.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	tids := map[string]int{}
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(events)), DisplayTimeUnit: "ms"}
	for _, e := range events {
		tid, ok := tids[e.Cat]
		if !ok {
			tid = len(tids) + 1
			tids[e.Cat] = tid
		}
		ce := chromeEvent{
			Name:  e.Name,
			Cat:   e.Cat,
			Phase: "X",
			TS:    float64(e.Sim) / float64(time.Microsecond),
			PID:   1,
			TID:   tid,
			Args:  map[string]any{"wall_us": float64(e.Wall) / float64(time.Microsecond)},
		}
		switch {
		case e.SimDur != 0:
			ce.Dur = float64(e.SimDur) / float64(time.Microsecond)
		case e.WallDur != 0:
			ce.Dur = float64(e.WallDur) / float64(time.Microsecond)
			ce.Args["wall_dur_us"] = ce.Dur
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
