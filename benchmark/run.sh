#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source and
# runs it, keeping every file the Go toolchain writes (build cache, module
# cache, telemetry, the two binaries) under .bench_build/ in the checkout, so
# a run reads and writes nothing outside it. Arguments go to the benchmark:
#
#   bash benchmark/run.sh --workload churn-point --seed 7 --seconds 16 --trace 0
#
# From a development checkout, `go run ./benchmark ...` does the same with
# the caches the developer already has.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/arganrun ]]; then
  echo "benchmark/run.sh: $root is not the argan repository (no go.mod or cmd/arganrun); nothing to benchmark" >&2
  exit 1
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$build/argan-benchmark" ./benchmark
exec "$build/argan-benchmark" "$@"
