#!/usr/bin/env bash
# Builds the benchmark from source (a Go module of its own that imports
# the repository's packages through a replace directive) and runs it
# from the repository root. Everything the build leaves behind —
# binary, Go build cache — stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd benchmark && go build -o "$root/.bench_build/benchmark" .)
exec "$root/.bench_build/benchmark" "$@"
