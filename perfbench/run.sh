#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload outage118 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build
# (compiler cache, binary, scratch patch files) and .bench_out (result
# files) at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
