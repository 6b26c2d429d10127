#!/usr/bin/env bash
# Builds the benchmark and sweepd from this checkout, then runs the benchmark
# with the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload detailed-mix --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/perfbench.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/sweepd" repro/cmd/sweepd) >&2
exec "$out/bin/perfbench" -out "$out" -sweepd "$out/bin/sweepd" "$@"
