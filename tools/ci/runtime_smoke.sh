#!/usr/bin/env bash
# The Release scenario matrix: the matrix step of CI's runtime-smoke job,
# runnable locally with one command.
#
#   tools/ci/runtime_smoke.sh BUILD_DIR
#
# BUILD_DIR must hold cas_run (CI builds it in Release). Every cell of
# problems x engines x strategies is the same binary with different data —
# the point of the runtime: each problem runs multiwalk and sequential
# under the as and tabu engines, plus one portfolio cell (engine as only,
# since portfolio takes its engines from strategy_config and rejects an
# engine field). Each must solve every request and write a report that is
# valid JSON (BUILD_DIR/report.json, overwritten per cell). Exits non-zero
# on the first failed cell.
set -euo pipefail

BUILD=$(cd "${1:?usage: $0 BUILD_DIR}" && pwd)
cd "$BUILD"
run_cell() {
  echo "== $1 engine=$2 strategy=$3"
  # $1 is unquoted on purpose: it carries the --size flag too.
  # shellcheck disable=SC2086
  ./cas_run --problem=$1 --engine="$2" --strategy="$3" \
            --walkers=3 --require-solved --out=report.json
  python3 -m json.tool report.json > /dev/null
}
for problem in "costas --size=11" "queens --size=32"; do
  for engine in as tabu; do
    for strategy in multiwalk sequential; do
      run_cell "$problem" "$engine" "$strategy"
    done
  done
  run_cell "$problem" as portfolio
done
echo "runtime smoke: all cells passed"
