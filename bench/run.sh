#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the repository root:
#
#   bash bench/run.sh --workload core-dense --seed 1 --trace 0
#
# Build outputs, the Go build cache and the run's files stay under
# .bench_build in the working directory; nothing is fetched from the
# network.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
