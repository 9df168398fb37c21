package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"fivegsim"
)

// maxSpecPopulation is the population cap Config.Population documents.
const maxSpecPopulation = 1_000_000

// FuzzSpec drives the admission boundary. The input is decoded the way
// handleSubmit decodes a POST /campaigns body (unknown fields rejected)
// and the spec is validated. Nothing may panic, and every Validate error
// must wrap ErrInvalidSpec. An accepted spec must expand to between 1
// and maxUnits units with no (seed, experiment) pair twice, name only
// registered experiments, and materialize a Config that
// fivegsim.Config.Validate accepts — so its population override is at
// most maxSpecPopulation.
func FuzzSpec(f *testing.F) {
	registered := map[string]bool{}
	for _, e := range fivegsim.Experiments() {
		registered[e.ID] = true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var spec Spec
		if err := dec.Decode(&spec); err != nil {
			return // a malformed body is refused before validation
		}
		if err := spec.Validate(); err != nil {
			if !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("Validate error %v does not wrap ErrInvalidSpec", err)
			}
			return
		}
		units := spec.Units()
		if len(units) < 1 || len(units) > maxUnits {
			t.Fatalf("accepted spec expands to %d units, want 1..%d", len(units), maxUnits)
		}
		seen := make(map[Unit]bool, len(units))
		for _, u := range units {
			if seen[u] {
				t.Fatalf("unit %+v appears twice", u)
			}
			seen[u] = true
			if !registered[u.Experiment] {
				t.Fatalf("unit %+v names an unregistered experiment", u)
			}
		}
		if spec.Population > maxSpecPopulation {
			t.Fatalf("accepted population %d past the cap %d", spec.Population, maxSpecPopulation)
		}
		cfg, err := spec.Config()
		if err != nil {
			t.Fatalf("accepted spec has no config: %v", err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted spec's config fails fivegsim.Config.Validate: %v", err)
		}
	})
}
