#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments go to the benchmark binary:
#
#   bash benchmark/run.sh --workload tcp --seed 42 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, binaries, temporary files,
# traces) stays under .bench_build/ in the current directory, and the Go
# command is kept off the network and away from the user's configuration.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$out/fgbenchmark" . && go build -o "$out/nullproc" ./nullproc)
exec "$out/fgbenchmark" "$@"
