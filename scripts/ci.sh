#!/usr/bin/env bash
# CI gate for fivegsim: gofmt, vet, build, the tier-1 test suite, a
# race pass over the parallel campaign engine, ten race rounds of the
# caches through which closed packet paths hand their storage to paths
# on other goroutines (TestSlabCacheSharedAcrossGoroutines) and of
# traced paths on four goroutines publishing their counts into one
# registry as they close (TestTracedPathsShareRegistry), short fuzzes of the TCP engine's interval set
# and SACK log, of the DES heap, of fault-plan validation, of the
# library's Config validation, of the result/v1 decode round trip, of
# fgserve's spec decode and admission validation, of the PRB scheduler
# and of the Prometheus exposition of fuzzed instrument names, one run of
# every program under examples/, a check that fgpop refuses a positional
# argument, the fgserve smoke (which reads a saved stream back through
# fgobs), the benchmark module's tests, and one run of every internal
# micro-bench.
# Performance has one gate, the benchmark/ module (BENCHMARK.json); the
# hot paths' zero-allocation contracts are AllocsPerRun guards in the
# tier-1 suite, and the micro-bench step only proves each bench still
# builds, runs and passes its own output checks. The race step runs -short:
# the long statistical sweeps trim to one seed, but every Workers>1
# path stays on — TestRunAllParallelRace dispatches experiments across
# an 8-worker pool with a shared registry and tracer, and the
# worker-equivalence tests race the survey shards, campaign walks and
# probe sweeps, and TestSurveyConcurrentWithTicks runs a sharded survey
# against concurrent population ticks on one shared campus. `make
# race-full` runs the unabridged suite under -race.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt (every tracked Go file) =="
UNFORMATTED=$(git ls-files '*.go' | xargs gofmt -l)
[ -z "$UNFORMATTED" ] || { echo "gofmt -l lists unformatted files:" >&2; echo "$UNFORMATTED" >&2; exit 1; }

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race -short (parallel engine under the race detector) =="
go test -race -short ./...

echo "== hand-on caches under the race detector (10 rounds) =="
# A closed path hands its packet slabs, generators, scheduler heap and
# SACK storage to the next path on any goroutine through sync.Pools. The
# race build's sync.Pool drops a random share of what it is given, so
# repeated rounds exercise both a cache hit and a miss of each. A closed
# path also publishes its counts into its registry, which paths on other
# goroutines share; their totals must equal a serial run's.
go test -race -count=10 -run '^(TestSlabCacheSharedAcrossGoroutines|TestTracedPathsShareRegistry)$' ./internal/netsim

echo "== fault determinism short suite =="
go test -short -run 'Fault|Injection|Plan|Scenario|Ctx|Cancellation' ./internal/fault/ ./internal/par/ .

echo "== population suite (PRB properties, determinism, N=1, alloc guards) =="
go test -race -short ./internal/pop/ ./internal/traffic/ ./internal/deploy/

echo "== pop-dynamics property suite (churn conservation, A3 invariants, cancellation) =="
go test -race -short -run 'Churn|A3|LoadCoupling|Dynamics|ProbeContract|EstimateETA' \
	./internal/pop/ ./internal/handoff/ ./internal/obs/

echo "== examples (each program under examples/ runs once and exits 0) =="
# The examples call the library the way a user's program would, and no
# test runs them, so an API change that breaks one shows here first.
for dir in examples/*/; do
	name=$(basename "$dir")
	go build -o "/tmp/example_ci_$name" "./$dir"
	"/tmp/example_ci_$name" >"/tmp/example_ci_$name.log" 2>&1 || {
		echo "examples/$name exited $?" >&2; cat "/tmp/example_ci_$name.log" >&2; exit 1; }
done

echo "== fgpop refuses a positional argument (exit 2) =="
# Go's flag package stops parsing at the first non-flag argument, so a
# value after the bool flag -loadfb would silently drop every flag after
# it (-churn 30 here). fgpop, like every command in cmd/, must print its
# usage and exit 2 instead of running without them.
go build -o /tmp/fgpop_ci ./cmd/fgpop
STATUS=0
/tmp/fgpop_ci -n 10 -ticks 1 -loadfb 0.3 -churn 30 >/tmp/fgpop_ci.log 2>&1 || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "fgpop -loadfb 0.3 -churn 30 exited $STATUS, want 2" >&2; cat /tmp/fgpop_ci.log >&2; exit 1; }

echo "== fuzz: intervalSet against a bitmap model (10 s) =="
go test -run '^$' -fuzz '^FuzzIntervalSet$' -fuzztime 10s ./internal/transport

echo "== fuzz: SACK log against the copy-per-ACK reference (10 s) =="
go test -run '^$' -fuzz '^FuzzSackLog$' -fuzztime 10s ./internal/transport

echo "== fuzz: DES heap against a sorted reference (10 s) =="
go test -run '^$' -fuzz '^FuzzScheduler$' -fuzztime 10s ./internal/des

echo "== fuzz: fault.Plan.Validate against an independent well-formedness check (10 s) =="
go test -run '^$' -fuzz '^FuzzPlanValidate$' -fuzztime 10s ./internal/fault

echo "== fuzz: Config.Validate over fuzzed worker counts, populations and fault plans (10 s) =="
go test -run '^$' -fuzz '^FuzzConfigValidate$' -fuzztime 10s .

echo "== fuzz: result/v1 decode, encode, decode, encode round trip (10 s) =="
go test -run '^$' -fuzz '^FuzzResultJSON$' -fuzztime 10s .

echo "== fuzz: fgserve spec decode and admission validation (10 s) =="
go test -run '^$' -fuzz '^FuzzSpec$' -fuzztime 10s ./internal/serve

echo "== fuzz: PRB scheduler conservation, work-conservation and starvation bound (10 s) =="
go test -run '^$' -fuzz '^FuzzSchedule$' -fuzztime 10s ./internal/pop

echo "== fuzz: Prometheus exposition of fuzzed metric and label names and values (10 s) =="
go test -run '^$' -fuzz '^FuzzPromExposition$' -fuzztime 10s ./internal/obs

echo "== campaign service smoke (fgserve: submit -> stream -> /metrics -> /progress -> SIGINT) =="
# Start the campaign service on an ephemeral port and run two campaigns
# back to back. The first lists its experiments OUT of paper order and
# must stream them in paper order (T1 before F4) while a live serve_
# series shows in /metrics; its saved stream is a results file, which
# fgobs show and diff must read. The second (X12,F10) must put
# population and DES series in /metrics, and /progress must count both
# campaigns' units service-wide. fgobs tail must follow the service to
# done, and SIGINT — the one shutdown path — must drain it clean.
go build -o /tmp/fgserve_ci ./cmd/fgserve
go build -o /tmp/fgobs_ci ./cmd/fgobs
/tmp/fgserve_ci -addr 127.0.0.1:0 -pool 2 >/tmp/fgserve_ci.log 2>&1 &
FGSERVE_PID=$!
trap 'kill "$FGSERVE_PID" 2>/dev/null || true' EXIT
ADDR=""
for _ in $(seq 1 50); do
	ADDR=$(sed -n 's|.*serving campaigns on http://\([^ ]*\).*|\1|p' /tmp/fgserve_ci.log)
	[ -n "$ADDR" ] && break
	sleep 0.2
done
[ -n "$ADDR" ] || { echo "fgserve never bound an address" >&2; cat /tmp/fgserve_ci.log >&2; exit 1; }
submit() {
	curl -fsS -X POST "http://$ADDR/campaigns" -d "$1" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'
}
CID=$(submit '{"schema":"fgserve.spec/v1","name":"ci smoke","experiments":["F4","T1"],"seeds":[7],"quick":true}')
[ -n "$CID" ] || { echo "campaign submit failed" >&2; cat /tmp/fgserve_ci.log >&2; exit 1; }
curl -fsS "http://$ADDR/metrics" > /tmp/fgserve_metrics.txt
grep -q '^serve_campaigns_submitted 1' /tmp/fgserve_metrics.txt || {
	echo "no live serve_ series in /metrics" >&2; cat /tmp/fgserve_metrics.txt >&2; exit 1; }
ORDER=$(curl -fsS --max-time 120 "http://$ADDR/campaigns/$CID/stream" \
	| tee /tmp/fgserve_stream.ndjson \
	| sed -n 's|.*"kind":"result".*"result":{"schema":"fivegsim.result/v1","id":"\([A-Z0-9]*\)".*|\1|p' \
	| paste -sd, -)
[ "$ORDER" = "T1,F4" ] || { echo "streamed results '$ORDER', want paper order T1,F4" >&2; exit 1; }
/tmp/fgobs_ci show -id T1 /tmp/fgserve_stream.ndjson > /tmp/fgobs_show.log || {
	echo "fgobs show cannot read the saved stream" >&2; exit 1; }
grep -q '^run T1 ' /tmp/fgobs_show.log || { echo "fgobs show never printed run T1" >&2; cat /tmp/fgobs_show.log >&2; exit 1; }
/tmp/fgobs_ci diff /tmp/fgserve_stream.ndjson /tmp/fgserve_stream.ndjson > /dev/null || {
	echo "fgobs diff of the saved stream against itself failed" >&2; exit 1; }
curl -fsS "http://$ADDR/campaigns/$CID" | grep -q '"state":"done"' || {
	echo "campaign never reached done" >&2; exit 1; }
curl -fsS "http://$ADDR/metrics" | grep -q '^serve_units_completed 2' || {
	echo "serve_units_completed never reached 2" >&2; exit 1; }
CID2=$(submit '{"schema":"fgserve.spec/v1","name":"ci telemetry","experiments":["X12","F10"],"seeds":[42],"quick":true}')
[ -n "$CID2" ] || { echo "second campaign submit failed" >&2; cat /tmp/fgserve_ci.log >&2; exit 1; }
curl -fsS "http://$ADDR/progress" | grep -q '"total":4' || { echo "/progress missing service-wide totals" >&2; exit 1; }
for _ in $(seq 1 150); do
	curl -fsS "http://$ADDR/metrics" > /tmp/fgserve_metrics.txt 2>/dev/null || true
	if grep -q '^pop_' /tmp/fgserve_metrics.txt && grep -q '^des_' /tmp/fgserve_metrics.txt; then
		break
	fi
	sleep 0.2
done
grep -q '^pop_' /tmp/fgserve_metrics.txt || { echo "no pop_ series in /metrics" >&2; cat /tmp/fgserve_ci.log >&2; exit 1; }
grep -q '^des_' /tmp/fgserve_metrics.txt || { echo "no des_ series in /metrics" >&2; cat /tmp/fgserve_ci.log >&2; exit 1; }
timeout 120 /tmp/fgobs_ci tail -url "http://$ADDR" -interval 500ms > /tmp/fgobs_tail.log || {
	echo "fgobs tail did not follow the service to done" >&2; cat /tmp/fgobs_tail.log >&2; exit 1; }
grep -q 'progress 4/4 done' /tmp/fgobs_tail.log || { echo "fgobs tail never saw 4/4 units done" >&2; cat /tmp/fgobs_tail.log >&2; exit 1; }
curl -fsS "http://$ADDR/progress" | grep -q '"done":true' || { echo "/progress not done after both campaigns" >&2; exit 1; }
kill -INT "$FGSERVE_PID"
if ! wait "$FGSERVE_PID"; then
	echo "fgserve did not exit cleanly on SIGINT" >&2
	cat /tmp/fgserve_ci.log >&2
	exit 1
fi
grep -q 'drained clean' /tmp/fgserve_ci.log || { echo "fgserve never drained clean" >&2; cat /tmp/fgserve_ci.log >&2; exit 1; }
trap - EXIT
echo "campaign service streams paper-order results, live telemetry and service-wide progress, and drains clean"

echo "== benchmark module (smoke + digest check; the root go test ./... does not see it) =="
(cd benchmark && go test ./...)

echo "== micro-benches (each runs once: its set-up and output checks still work) =="
go test -run '^$' -bench . -benchtime 1x ./internal/...

echo "ci: all green"
