#!/usr/bin/env bash
# Builds racedetd and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments, e.g.
#
#   bash bench/run.sh --workload mix-stream --seed 1 --seconds 6 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, both binaries, daemon scratch state
# and the span file of a traced run.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/bin/racedetd" ./cmd/racedetd >&2
(cd bench && go build -o "$out/bin/racebench" .) >&2
exec "$out/bin/racebench" -racedetd "$out/bin/racedetd" -workdir "$out" "$@"
