#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# the checkout's own build directory, then runs it with the arguments given.
# Go's build cache and temporary files are kept under .bench_build too, so a
# run reads and writes nothing outside the checkout it was started in.
# Run from the repository root:  bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
