#!/usr/bin/env bash
# The scenario-corpus leg: the run steps of CI's scenario-corpus job,
# runnable locally with one command.
#
#   tools/ci/corpus.sh BUILD_DIR
#
# BUILD_DIR must hold cas_run, cas_serve and cas_load (CI builds them in
# Release). Reports, server logs and BENCH_serve.json land in
# BUILD_DIR/corpus, which is emptied first. Exits non-zero on the first
# failed step.
set -euo pipefail

BUILD=$(cd "${1:?usage: $0 BUILD_DIR}" && pwd)
cd "$(dirname "$0")/../.."
OUT="$BUILD/corpus"
rm -rf "$OUT"
mkdir -p "$OUT"
SRV=""
trap '[ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true' EXIT

step() { echo "== $*"; }

# Every checked-in scenario (paper-table instances, the dedup/cache wave
# batch, the admission-budget gate, the distributed worlds) runs through
# cas_run; check_report.py validates each emitted report — solutions
# re-verified independently, provenance stamped, served_by/dedup/cache/
# rejection outcomes as the scenario's expect block pins. Exit 1 is a
# legitimate outcome (expected rejections/unsolved); only the checker
# decides pass/fail.
step "Scenario corpus"
for scenario in tools/scenarios/*.json; do
  echo "== $scenario"
  report="$OUT/$(basename "$scenario" .json).report.json"
  rc=0; "$BUILD/cas_run" --scenario="$scenario" --out="$report" || rc=$?
  if [ "$rc" -gt 1 ]; then echo "cas_run failed (rc=$rc)"; exit "$rc"; fi
  python3 tools/check_report.py "$scenario" "$report"
done

# The same s11 mix the corpus just validated through cas_run now goes over
# a real socket: cas_serve on an ephemeral port, cas_load replays one round
# and emits a cas_run-shaped report that check_report.py validates against
# the SAME expect block (the scenario pins executions, not the dedup/cache
# split, precisely so both timing regimes pass). SIGTERM must drain
# gracefully: every in-flight report flushed, exit code 0.
step "Loopback serving smoke"
"$BUILD/cas_serve" --port=0 --port-file="$OUT/port.txt" --cache=64 \
                   --pool-threads=2 2>"$OUT/serve.log" &
SRV=$!
for i in $(seq 100); do [ -s "$OUT/port.txt" ] && break; sleep 0.1; done
"$BUILD/cas_load" --port="$(cat "$OUT/port.txt")" \
    --scenario=tools/scenarios/s11_serve_smoke.json \
    --connections=4 --rounds=1 --rps=200 \
    --out=- --report="$OUT/wire_report.json"
python3 tools/check_report.py tools/scenarios/s11_serve_smoke.json "$OUT/wire_report.json"
kill -TERM "$SRV"
wait "$SRV"
SRV=""
grep -q "drained, exiting" "$OUT/serve.log"

# Short ladder against a priced server: the mix's monster request must be
# load-shed at the edge (shed_engaged), the cached-hit floor must hold,
# and the ladder must find the saturation knee. Absolute RPS is
# machine-dependent, so the floor is far below the checked-in reference's
# sustained rate; the reference file itself documents the measured machine
# in its provenance block.
step "Saturation bench + guard"
rm -f "$OUT/port.txt"
"$BUILD/cas_serve" --port=0 --port-file="$OUT/port.txt" --shed-budget=0.1 \
                   --cache=256 --pool-threads=2 2>"$OUT/serve_bench.log" &
SRV=$!
for i in $(seq 100); do [ -s "$OUT/port.txt" ] && break; sleep 0.1; done
"$BUILD/cas_load" --port="$(cat "$OUT/port.txt")" \
    --scenario=tools/bench/serve_mix.json \
    --connections=4 --saturation --rps=500 --rps-factor=2 \
    --duration=1 --max-phases=10 --out="$OUT/BENCH_serve.json"
kill -TERM "$SRV"
wait "$SRV"
SRV=""
python3 tools/check_bench.py BENCH_serve.json "$OUT/BENCH_serve.json" \
    --min-sustained-rps 150

echo "corpus: all steps passed"
