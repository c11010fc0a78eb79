#!/usr/bin/env bash
# What BENCHMARK.json runs: builds heimdall-bench from this checkout and
# runs it, with every build product inside the checkout (.bench_build/).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -C benchmark -o ../.bench_build/heimdall-bench .
exec .bench_build/heimdall-bench "$@"
