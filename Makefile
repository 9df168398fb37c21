GO ?= go

.PHONY: build test race race-full faults pop pop-dynamics serve serve-test bench bench-workers ci

build:
	$(GO) build ./...

# Tier-1 verification: what every PR must keep green.
test:
	$(GO) build ./... && $(GO) test ./...

# Race pass over the parallel campaign engine: -short trims the long
# statistical sweeps to one seed but always runs the Workers=8 paths
# (TestRunAllParallelRace and the worker-equivalence tests).
race:
	$(GO) test -race -short ./...

# The unabridged suite under the race detector (slow; not part of ci).
race-full:
	$(GO) test -race ./...

# Fault-injection suite under the race detector: plan validation,
# scenario presets, (Seed, Plan) determinism and the context-aware
# engine paths.
faults:
	$(GO) test -race -short -run 'Fault|Injection|Plan|Scenario|Ctx|Cancellation' ./internal/fault/ ./internal/par/ .

# Population-layer suite under the race detector: PRB-scheduler property
# tests, Workers-equivalence determinism, the N=1 probe regression and
# the zero-alloc tick guards.
pop:
	$(GO) test -race -short ./internal/pop/ ./internal/traffic/ ./internal/deploy/

# Population-dynamics property suite under the race detector: churn
# conservation, A3 TTT/hysteresis invariants, load-coupling boundedness
# and cancellation safety (ci.sh runs the same selection).
pop-dynamics:
	$(GO) test -race -short -run 'Churn|A3|LoadCoupling|Dynamics|ProbeContract|EstimateETA' \
		./internal/pop/ ./internal/handoff/ ./internal/obs/

# Launch the fgserve campaign service on the default address
# (127.0.0.1:9237). POST specs to /campaigns; ctrl-c drains.
serve:
	$(GO) run ./cmd/fgserve

# Campaign-service suite under the race detector: spec validation,
# paper-order streaming, two-tenant fairness, mid-campaign cancel and
# the HTTP surface end to end.
serve-test:
	$(GO) test -race ./internal/serve/

# Micro-benches for measuring while you work: the scheduler/telemetry
# overhead and per-figure benches at the root, and the hot-path benches
# next to the code they measure (packet path, survey, batch kernel, pop
# tick). They gate nothing and write no baseline; the one performance
# gate is the benchmark/ module. Includes the campaign-scale
# BenchmarkRunAllWorkers1/8, so this is slow.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem . ./internal/...

# Serial vs parallel wall-clock of the full quick campaign.
bench-workers:
	$(GO) test -run xxx -bench=BenchmarkRunAllWorkers -benchtime=1x .

ci:
	./scripts/ci.sh
