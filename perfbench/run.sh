#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the repository
# root, where BENCHMARK.json lives:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files, the binary and the traced run's span
# files all stay under .bench_build/ in the current directory. The build is
# offline: it needs the Go toolchain and this repository's sources only.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
