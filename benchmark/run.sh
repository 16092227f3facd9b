#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the root of the checkout (Go's build cache is kept there
# too, so nothing is written outside the checkout) and runs it with the given
# arguments. Fails when the repo's own sources are missing.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
# Everything the go command writes goes under .bench_build: build cache,
# module cache, and (through XDG_CONFIG_HOME) its telemetry counters.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/psgl-benchmark" .
exec "$build/psgl-benchmark" "$@"
