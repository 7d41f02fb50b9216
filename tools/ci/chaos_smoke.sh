#!/usr/bin/env bash
# The seeded fault-injection smoke: the run steps of CI's chaos-smoke job,
# runnable locally with one command.
#
#   tools/ci/chaos_smoke.sh BUILD_DIR
#
# BUILD_DIR must hold cas_run and cas_chaos (CI builds them in Release).
# Chaos reports, plans, logs and checkpoint directories land in
# BUILD_DIR/chaos-smoke, which is emptied first. Exits non-zero on the
# first failed step.
set -euo pipefail

BUILD=$(cd "${1:?usage: $0 BUILD_DIR}" && pwd)
cd "$(dirname "$0")/../.."
OUT="$BUILD/chaos-smoke"
rm -rf "$OUT"
mkdir -p "$OUT"
CAS_RUN="$BUILD/cas_run"
CAS_CHAOS="$BUILD/cas_chaos"
S12=tools/scenarios/s12_dist_multiwalk_n18.json
S13=tools/scenarios/s13_elastic_ckpt_n14.json

step() { echo "== $*"; }

# The acceptance loop for the fault layer: the s12 world (three hunts on
# one 4-rank world) runs under three seeded fault schedules (resets +
# corruption at the rendezvous window, latency, partial I/O, EINTR/EAGAIN
# storms, accept refusals). Every chaos run must terminate inside the
# deadline with winners bit-identical to the fault-free baseline's — the
# (solve iteration, walker id) rule is timing-invariant — and
# --prove-no-retry re-runs the first schedule with CAS_FAULT_NO_RETRY=1,
# which MUST fail: the proof that the schedules exercise the retry/backoff
# paths rather than landing in windows nobody hits.
step "4-rank multi-hunt world under three pinned schedules"
"$CAS_CHAOS" --scenario="$S12" --seeds=1,2,3 --prove-no-retry --out-dir="$OUT/chaos_s12"

# Fingerprint equality (cas_chaos) is necessary but not sufficient: each
# chaos report must also pass the SAME expect-block validation a clean
# corpus run does — solutions re-verified independently.
step "Chaos reports satisfy the scenario contract"
for r in "$OUT"/chaos_s12/baseline.json "$OUT"/chaos_s12/chaos-*.json; do
  echo "== $r"
  python3 tools/check_report.py "$S12" "$r"
done

# The checkpointed s13 world under the same schedules, bit-exact against
# its baseline too (cas_chaos --compare=auto requires full winner/solution
# equality for every world's report).
step "Checkpointed world under the same schedules"
mkdir -p "$OUT/ckpt_chaos"
"$CAS_CHAOS" --scenario="$S13" --seeds=1,2,3 --prove-no-retry \
    --extra "--ckpt-dir=$OUT/ckpt_chaos" --out-dir="$OUT/chaos_s13"
for r in "$OUT"/chaos_s13/baseline.json "$OUT"/chaos_s13/chaos-*.json; do
  echo "== $r"
  python3 tools/check_report.py "$S13" "$r"
done

# --kill-coordinator SIGKILLs member 0 mid-hunt with --standby armed and
# requires the promoted standby's report to be bit-exact against the
# fault-free baseline AND to record the promotion; its built-in negative
# control re-runs the kill without --standby and requires THAT to fail.
# The promoted report then passes the same expect-block validation as any
# corpus run.
step "Coordinator assassination drill"
mkdir -p "$OUT/ckpt_kc"
"$CAS_CHAOS" --scenario="$S13" --seeds=1 --kill-coordinator \
    --extra "--ckpt-dir=$OUT/ckpt_kc" --out-dir="$OUT/chaos_kc"
python3 tools/check_report.py "$S13" "$OUT/chaos_kc/kill-coordinator.json"

# Seeded DISK faults (CAS_FAULT_PLAN's torn_write class): the host's final
# manifest write is silently truncated mid-blob — the classic power-loss
# torn file, reported as success to the writer. The resume must detect the damage
# (header/CRC), fall back to the rotated manifest.prev.ckpt cut, and still
# land the pinned winner. resume_fell_back proves the fallback actually
# engaged (a plan that misfires would leave the manifest intact and pass
# vacuously).
step "Torn manifest write falls back to the predecessor cut"
mkdir -p "$OUT/ckpt_torn"
CAS_FAULT_PLAN='{"seed":9,"torn_write":{"prob":1,"min_op":5}}' \
"$CAS_RUN" --scenario="$S13" --ranks=2 --ckpt-dir="$OUT/ckpt_torn" --max-epochs=3 \
    --out="$OUT/torn_preempt.json"
"$CAS_RUN" --scenario="$S13" --ranks=2 --resume="$OUT/ckpt_torn" --out="$OUT/torn_resume.json"
python3 tools/check_report.py "$S13" "$OUT/torn_resume.json"
python3 - "$OUT/torn_resume.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["results"][0]["extras"]["dist"]["ckpt"]
assert c["resume_fell_back"] is True, c
EOF

echo "chaos smoke: all steps passed"
