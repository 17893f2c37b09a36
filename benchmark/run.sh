#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source into
# .bench_build/ at the root of the checkout (Go's build cache and temporary
# files included, so nothing is written outside the checkout), then runs it
# with the arguments given:
#
#   bash benchmark/run.sh --workload mac_dense --seed 3 --seconds 10 --trace 0
#
# For everyday use `go run ./benchmark` does the same with the usual cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
