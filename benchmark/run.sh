#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the build
# writes (compiler cache, temporary files, the binary) inside the checkout's
# .bench_build directory. BENCHMARK.json's command runs this script from the
# checkout's root; every argument is passed to the benchmark.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/adjbench" ./benchmark
exec "$build/adjbench" "$@"
