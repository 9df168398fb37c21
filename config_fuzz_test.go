package fivegsim

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"fivegsim/internal/fault"
)

// configFaultRecord is the byte length of one fuzz-decoded fault: a kind
// byte, then At, Dur and Extra as int64 and the raw float64 bits of
// LossRate and Scale, all little-endian, so the fuzzer reaches NaN, ±Inf
// and overflowing windows.
const configFaultRecord = 1 + 5*8

// decodeConfigPlan builds the fault plan of a fuzzed config: none for
// empty input, else up to two faults (a plan with none when the input
// is shorter than one record). Kind bytes reach past the last valid
// Kind.
func decodeConfigPlan(data []byte) *fault.Plan {
	if len(data) == 0 {
		return nil
	}
	p := &fault.Plan{Name: "fuzz"}
	for len(data) >= configFaultRecord && len(p.Faults) < 2 {
		word := func(i int) uint64 { return binary.LittleEndian.Uint64(data[1+8*i:]) }
		p.Faults = append(p.Faults, fault.Fault{
			Kind:     fault.Kind(data[0] % 8),
			At:       time.Duration(word(0)),
			Dur:      time.Duration(word(1)),
			Extra:    time.Duration(word(2)),
			LossRate: math.Float64frombits(word(3)),
			Scale:    math.Float64frombits(word(4)),
		})
		data = data[configFaultRecord:]
	}
	return p
}

// FuzzConfigValidate holds Config.Validate to its contract over fuzzed
// worker counts, population overrides and fault plans: it never panics;
// it accepts a config exactly when Workers ≥ 0, 0 ≤ Population ≤
// maxPopulation and the plan, if any, validates; and every rejection is
// an *InvalidConfigError naming the first failing field, in the order
// Workers, Population, Faults, with a plan's fault.ErrInvalidPlan still
// on the chain.
func FuzzConfigValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, workers, population int, plan []byte) {
		cfg := Config{Workers: workers, Population: population, Faults: decodeConfigPlan(plan)}
		err := cfg.Validate()
		var field string
		switch {
		case workers < 0:
			field = "Workers"
		case population < 0 || population > maxPopulation:
			field = "Population"
		case cfg.Faults != nil && cfg.Faults.Validate() != nil:
			field = "Faults"
		}
		if field == "" {
			if err != nil {
				t.Fatalf("rejected a valid config (workers %d, population %d): %v", workers, population, err)
			}
			return
		}
		var ice *InvalidConfigError
		if !errors.As(err, &ice) || ice.Field != field {
			t.Fatalf("workers %d, population %d: error %v, want an *InvalidConfigError on %s", workers, population, err, field)
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("error %v does not match ErrInvalidConfig", err)
		}
		if field == "Faults" && !errors.Is(err, fault.ErrInvalidPlan) {
			t.Fatalf("Faults error %v does not match fault.ErrInvalidPlan", err)
		}
	})
}
