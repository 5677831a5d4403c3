#!/usr/bin/env bash
# Builds concordd and the benchmark from the checkout this script sits in,
# then runs the benchmark with the arguments given:
#
#   bash bench/run.sh --workload hot_checkout --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh --trace 1                 # all four workloads, per layer
#   bash bench/run.sh -repeat 5                 # five sets against the bounds
#
# Everything it writes stays inside the checkout: binaries, Go's build cache
# and temporary files under .bench_build/, traces under bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local

# The build is not part of set-up time: it happens before the benchmark starts.
(cd "$root" && go build -o "$build/concordd" ./cmd/concordd)
(cd "$here" && go build -o "$build/bench" .)

cd "$root"
exec "$build/bench" -concordd "$build/concordd" -scratch "$build/run" -out "$here/out" "$@"
