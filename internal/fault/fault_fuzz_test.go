package fault_test

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"fivegsim/internal/fault"
)

// faultRecord is the byte length of one fuzz-decoded fault: a kind byte,
// then At, Dur and Extra as int64 and the raw float64 bits of LossRate
// and Scale, all little-endian. Raw bits let the fuzzer reach NaN, ±Inf
// and overflowing windows.
const faultRecord = 1 + 5*8

// decodePlan builds a plan of up to four faults from fuzz bytes; kind
// bytes reach two values past the last valid Kind.
func decodePlan(data []byte) *fault.Plan {
	p := &fault.Plan{Name: "fuzz"}
	for len(data) >= faultRecord && len(p.Faults) < 4 {
		word := func(i int) uint64 { return binary.LittleEndian.Uint64(data[1+8*i:]) }
		p.Faults = append(p.Faults, fault.Fault{
			Kind:     fault.Kind(data[0] % 8),
			At:       time.Duration(word(0)),
			Dur:      time.Duration(word(1)),
			Extra:    time.Duration(word(2)),
			LossRate: math.Float64frombits(word(3)),
			Scale:    math.Float64frombits(word(4)),
		})
		data = data[faultRecord:]
	}
	return p
}

// FuzzPlanValidate checks Plan.Validate against an independent model of
// a well-formed plan: it never panics, every rejection wraps
// ErrInvalidPlan, and every accepted plan holds the invariants the
// injector relies on (checkAccepted).
func FuzzPlanValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodePlan(data)
		if err := p.Validate(); err != nil {
			if !errors.Is(err, fault.ErrInvalidPlan) {
				t.Fatalf("error %v does not wrap ErrInvalidPlan", err)
			}
			return
		}
		checkAccepted(t, p)
	})
}

// checkAccepted fails unless p has a fault, every fault has a known
// kind, a window that starts at or after 0, has positive length and
// ends without overflow inside Duration(), and per-kind fields that are
// finite and inside their documented ranges.
func checkAccepted(t *testing.T, p *fault.Plan) {
	t.Helper()
	if len(p.Faults) == 0 {
		t.Fatal("accepted a plan with no faults")
	}
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	for i, f := range p.Faults {
		end := f.At + f.Dur
		if f.Kind < fault.LinkOutage || f.Kind > fault.CellFailure {
			t.Fatalf("fault %d: accepted unknown kind %d", i, int(f.Kind))
		}
		if f.At < 0 || f.Dur <= 0 || end < f.At {
			t.Fatalf("fault %d: accepted window at %d for %d", i, int64(f.At), int64(f.Dur))
		}
		if p.Duration() < end {
			t.Fatalf("fault %d: Duration() %d ends before the window end %d", i, int64(p.Duration()), int64(end))
		}
		ok := true
		switch f.Kind {
		case fault.LossBurst:
			ok = finite(f.LossRate) && f.LossRate > 0 && f.LossRate <= 1
		case fault.LatencyBurst:
			ok = f.Extra > 0
		case fault.WiredDegrade, fault.RadioDegrade:
			ok = finite(f.Scale) && f.Scale > 0 && f.Scale < 1
		}
		if !ok {
			t.Fatalf("fault %d (%s): accepted out-of-range fields %+v", i, f.Kind, f)
		}
	}
}
