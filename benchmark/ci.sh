#!/usr/bin/env bash
# CI entry point for the standing benchmark (not yet wired into
# .github/workflows/ci.yml — a later PR adds the job):
#   1. the harness unit tests,
#   2. a smoke run of all four workloads, end to end and traced
#      (2 s windows, one round; fails on any oracle violation),
#   3. a -compare self-check: a result file compared with itself must be
#      all "ok" and exit 0.
# It proves the benchmark runs and judges; it measures nothing — a 2 s
# window on a shared runner is not a number anyone should read.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local

(cd benchmark && go vet . && go test -short -count=1 .)
bash benchmark/run.sh --smoke --trace 1
bash benchmark/run.sh --smoke --out .bench_build/smoke.json
bash benchmark/run.sh --compare .bench_build/smoke.json .bench_build/smoke.json
echo "benchmark ci: ok"
