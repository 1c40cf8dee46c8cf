#!/bin/sh
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments:
#
#	sh perfbench/run.sh --workload sim-backlog --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Build outputs (compiler cache and
# binary) stay under .bench_build/, so nothing is written outside the
# checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
