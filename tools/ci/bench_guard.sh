#!/usr/bin/env bash
# The micro-bench smoke and its trajectory guard: the bench steps of CI's
# tier-1 job, runnable locally with one command.
#
#   tools/ci/bench_guard.sh BUILD_DIR COSTAS_FILTER ENGINE_SLACK
#
# BUILD_DIR must hold bench_micro_engine and bench_micro_costas. Each CI leg
# passes its own COSTAS_FILTER (the --benchmark_filter of the costas pairs
# its build compiles) and ENGINE_SLACK (the --max-regression of the engine
# pairs). The benches write BENCH_micro.json and BENCH_micro_costas.json
# into BUILD_DIR. Exits non-zero on the first failed step.
set -euo pipefail

usage="usage: $0 BUILD_DIR COSTAS_FILTER ENGINE_SLACK"
BUILD=$(cd "${1:?$usage}" && pwd)
COSTAS_FILTER=${2:?$usage}
ENGINE_SLACK=${3:?$usage}
cd "$(dirname "$0")/../.."

# Smoke-run the perf artifacts (tiny budget): the JSON output is the
# machine-readable perf trajectory successive PRs diff against.
(
  cd "$BUILD"
  ./bench_micro_engine --benchmark_filter='BM_EngineIterations(EvalBound)?(DoUndo)?/15$' --benchmark_min_time=0.05
  ./bench_micro_costas --benchmark_filter="$COSTAS_FILTER" --benchmark_min_time=0.05
  test -s BENCH_micro.json && test -s BENCH_micro_costas.json
)

# The speedup ratios (delta vs do/undo, SIMD vs scalar) are
# machine-independent; a >25% drop against the checked-in reference fails
# the run (the engine pairs allow ENGINE_SLACK instead).
python3 tools/check_bench.py BENCH_micro.json "$BUILD/BENCH_micro.json" \
    --max-regression "$ENGINE_SLACK"
python3 tools/check_bench.py BENCH_micro_costas.json "$BUILD/BENCH_micro_costas.json"
