#!/usr/bin/env bash
# Builds the benchmark harness from source into the checkout's .bench_build
# directory (build cache included, so nothing is written outside the
# checkout) and runs it from the repository root. BENCHMARK.json's command.
#
#   bash cmd/bench/run.sh --workload poisson1k --seed 1 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

# Everything the toolchain writes (build cache, module cache, its telemetry
# counters under the user config directory) stays under $build.
GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
GOFLAGS="-buildvcs=false" GOTOOLCHAIN=local \
	go build -C "$here" -o "$build/realtracer-bench" .

cd "$root"
exec "$build/realtracer-bench" "$@"
