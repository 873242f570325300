#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the bench from source and
# runs it with the arguments given, e.g.
#   bash bench/run.sh --workload txn-tpcc --seed 1 --seconds 10 --trace 0
# Everything it writes (Go's build cache, the binary, result and span
# files) goes under .bench_build/ at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C bench -o "$build/schism-bench" .
exec "$build/schism-bench" "$@"
