// Package serve is fivegsim's long-running campaign service: an
// HTTP/JSON API that accepts versioned campaign specs, validates them
// at the boundary, runs them on a bounded job queue where concurrent
// campaigns share one worker pool fairly, and streams per-unit
// progress and results as NDJSON or SSE.
//
// The unit of scheduling is one (seed, experiment) pair. A campaign
// spec expands into its units — seed-ladder order outer, paper order
// inner — and the pool round-robins across admitted campaigns, so a
// long campaign cannot starve a short one. Results stream in unit
// order no matter which worker finishes first (the same paper-order
// frontier the library's RunExperimentsContext keeps), and every
// result crosses the wire in the stable fivegsim.result/v1 encoding.
//
// Everything the service reports is replayable: each campaign keeps an
// append-only event log, so a stream opened mid-run (or after the run)
// sees the full history before it starts tailing.
package serve

import (
	"errors"
	"fmt"

	"fivegsim"
	"fivegsim/internal/fault"
)

// SpecSchemaV1 identifies the campaign-spec wire format accepted by
// POST /campaigns. A spec with an empty schema field is treated as v1
// (curl convenience); anything else is rejected at admission.
const SpecSchemaV1 = "fgserve.spec/v1"

// maxUnits bounds the units one spec may expand to: the service
// allocates a result slot per unit at admission.
const maxUnits = 10000

// ErrInvalidSpec is the sentinel wrapped by every spec validation
// failure; match with errors.Is. The underlying library errors stay on
// the chain: errors.Is also matches fivegsim.ErrInvalidConfig,
// fivegsim.ErrUnknownExperiment, fault.ErrInvalidPlan and
// fault.ErrUnknownScenario for the corresponding failures.
var ErrInvalidSpec = errors.New("serve: invalid campaign spec")

// SpecError reports the spec field that failed admission validation.
type SpecError struct {
	Field  string
	Reason string
	Cause  error
}

func (e *SpecError) Error() string {
	s := fmt.Sprintf("serve: invalid campaign spec: %s: %s", e.Field, e.Reason)
	if e.Cause != nil {
		s += ": " + e.Cause.Error()
	}
	return s
}

// Is matches ErrInvalidSpec.
func (e *SpecError) Is(target error) bool { return target == ErrInvalidSpec }

// Unwrap exposes the underlying library error (nil for shape-only
// failures).
func (e *SpecError) Unwrap() error { return e.Cause }

// Spec is a versioned campaign request: which experiments to run, at
// which seeds, with which knobs. The zero value (plus a schema) is a
// full default-seed campaign over every experiment. A spec expands to
// at most maxUnits (10 000) units — seeds × experiments — and admission
// rejects a larger one.
type Spec struct {
	// Schema must be SpecSchemaV1 or empty (treated as v1).
	Schema string `json:"schema"`
	// Name is an optional human label echoed in status documents.
	Name string `json:"name,omitempty"`
	// Experiments lists registry IDs to run; empty means every
	// registered experiment. Order is irrelevant — the service always
	// runs and streams them in paper order.
	Experiments []string `json:"experiments,omitempty"`
	// Seeds is the seed ladder: the campaign runs every experiment once
	// per seed, in ladder order. Empty means the canonical seed (42).
	// Duplicate seeds are rejected — they would name the same unit
	// twice.
	Seeds []int64 `json:"seeds,omitempty"`
	// Quick selects the reduced-duration experiment variants.
	Quick bool `json:"quick,omitempty"`
	// Workers is the engine parallelism *inside* one experiment run
	// (survey shards, campaign walks). 0 means serial — in a shared
	// service the pool provides cross-experiment parallelism, so
	// per-unit fan-out is opt-in.
	Workers int `json:"workers,omitempty"`
	// Scenario arms a fault-scenario preset (fgbench -faults list) on
	// every unit.
	Scenario string `json:"scenario,omitempty"`
	// Population overrides the population-experiment UE count (X12, X13
	// and X15).
	Population int `json:"population,omitempty"`
}

// Config materializes the library configuration the spec describes,
// with Seed left at the ladder's first entry (the service overrides it
// per unit). The error chain keeps fault.ErrUnknownScenario matchable.
func (sp Spec) Config() (fivegsim.Config, error) {
	cfg := fivegsim.Config{
		Quick:      sp.Quick,
		Workers:    sp.Workers,
		Population: sp.Population,
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if len(sp.Seeds) > 0 {
		cfg.Seed = sp.Seeds[0]
	} else {
		cfg.Seed = 42
	}
	if sp.Scenario != "" {
		s, err := fault.ScenarioByName(sp.Scenario)
		if err != nil {
			return fivegsim.Config{}, err
		}
		cfg.Faults = s.Plan()
	}
	return cfg, nil
}

// seeds returns the effective seed ladder (the canonical seed when the
// spec names none).
func (sp Spec) seeds() []int64 {
	if len(sp.Seeds) == 0 {
		return []int64{42}
	}
	return sp.Seeds
}

// experimentIDs resolves the effective experiment list in paper order:
// the full registry when the spec names none, otherwise the named
// subset reordered to paper order.
func (sp Spec) experimentIDs() []string {
	all := fivegsim.Experiments()
	if len(sp.Experiments) == 0 {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		return ids
	}
	want := make(map[string]bool, len(sp.Experiments))
	for _, id := range sp.Experiments {
		want[id] = true
	}
	ids := make([]string, 0, len(sp.Experiments))
	for _, e := range all {
		if want[e.ID] {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// Validate checks the spec at the admission boundary. All failures
// wrap ErrInvalidSpec and name the offending field; library causes
// (unknown experiment, unknown scenario, invalid config/fault plan)
// stay matchable through the chain.
func (sp Spec) Validate() error {
	if sp.Schema != "" && sp.Schema != SpecSchemaV1 {
		return &SpecError{Field: "schema",
			Reason: fmt.Sprintf("unknown schema %q (want %s)", sp.Schema, SpecSchemaV1)}
	}
	dup := make(map[string]bool, len(sp.Experiments))
	for _, id := range sp.Experiments {
		if dup[id] {
			return &SpecError{Field: "experiments",
				Reason: fmt.Sprintf("duplicate experiment %q", id)}
		}
		dup[id] = true
	}
	if err := fivegsim.ValidateExperiments(sp.Experiments...); err != nil {
		return &SpecError{Field: "experiments", Reason: "unknown experiment", Cause: err}
	}
	// Counted without experimentIDs, whose paper-order sort would cost
	// every submit a second pass over the registry.
	nexp := len(sp.Experiments)
	if nexp == 0 {
		nexp = len(fivegsim.Experiments())
	}
	if n := len(sp.seeds()) * nexp; n > maxUnits {
		return &SpecError{Field: "seeds",
			Reason: fmt.Sprintf("campaign expands to %d units (max %d)", n, maxUnits)}
	}
	seen := make(map[int64]bool, len(sp.Seeds))
	for _, s := range sp.Seeds {
		if seen[s] {
			return &SpecError{Field: "seeds",
				Reason: fmt.Sprintf("bad seed ladder: duplicate seed %d", s)}
		}
		seen[s] = true
	}
	cfg, err := sp.Config()
	if err != nil {
		return &SpecError{Field: "scenario", Reason: "unknown fault scenario", Cause: err}
	}
	if err := cfg.Validate(); err != nil {
		return &SpecError{Field: "config", Reason: "rejected by fivegsim.Config.Validate", Cause: err}
	}
	return nil
}

// Units returns the campaign's work units in execution/stream order:
// seed-ladder order outer, paper order inner.
func (sp Spec) Units() []Unit {
	seeds := sp.seeds()
	ids := sp.experimentIDs()
	units := make([]Unit, 0, len(seeds)*len(ids))
	for _, seed := range seeds {
		for _, id := range ids {
			units = append(units, Unit{Seed: seed, Experiment: id})
		}
	}
	return units
}

// Unit is one schedulable piece of a campaign: one experiment at one
// seed.
type Unit struct {
	Seed       int64  `json:"seed"`
	Experiment string `json:"experiment"`
}
