#!/usr/bin/env bash
# Builds the benchmark and the reprod daemon from this checkout's source,
# then runs the benchmark with the given arguments, for example:
#
#   bash perfbench/run.sh --workload hits --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache
# and per-run stores and logs all stay under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-buildvcs=false

go -C "$root/perfbench" build -o "$build/bin/perfbench" .
go -C "$root/perfbench" build -o "$build/bin/reprod" repro/cmd/reprod

exec "$build/bin/perfbench" -daemon "$build/bin/reprod" -work-dir "$build/run" "$@"
