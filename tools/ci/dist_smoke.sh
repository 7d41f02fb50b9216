#!/usr/bin/env bash
# The distributed loopback-world smoke: the run steps of CI's dist-smoke
# job, runnable locally with one command.
#
#   tools/ci/dist_smoke.sh BUILD_DIR
#
# BUILD_DIR must hold cas_run and bench_dist (CI builds them in Release).
# Reports, checkpoint directories and BENCH_dist.json land in
# BUILD_DIR/dist-smoke, which is emptied first. Exits non-zero on the first
# failed step.
set -euo pipefail

BUILD=$(cd "${1:?usage: $0 BUILD_DIR}" && pwd)
cd "$(dirname "$0")/../.."
OUT="$BUILD/dist-smoke"
rm -rf "$OUT"
mkdir -p "$OUT"
CAS_RUN="$BUILD/cas_run"
S12=tools/scenarios/s12_dist_multiwalk_n18.json
S13=tools/scenarios/s13_elastic_ckpt_n14.json

step() { echo "== $*"; }

# The headline acceptance run: ONE command forks a 4-rank world (rank 0
# hosts the rendezvous, siblings re-exec with identity flags) and pushes
# the three multiwalk requests through the socket communicator on one
# long-lived world. check_report.py re-verifies every solution
# independently — the merged rank-0 report must be indistinguishable in
# shape from an in-process run.
step "4-process loopback scenario"
"$CAS_RUN" --scenario="$S12" --ranks=4 --out="$OUT/dist_report.json"
python3 tools/check_report.py "$S12" "$OUT/dist_report.json"

# Every rank of a world prices requests with its own rate probe, so an
# admission budget could split the world; cas_run must refuse it at once,
# before any rendezvous, and say why. A hang (timeout's 124) or a crash is
# a failure, and so is an exit without the reason.
step "An admission budget is refused in a distributed world"
rc=0
timeout 30 "$CAS_RUN" --ranks=2 --size=17 --walkers=4 --admit-budget=0.65 \
    --out="$OUT/admit_report.json" 2>"$OUT/admit_stderr.txt" || rc=$?
cat "$OUT/admit_stderr.txt"
if [ "$rc" -eq 0 ] || [ "$rc" -eq 124 ] || [ "$rc" -gt 128 ]; then
  echo "negative control: expected a prompt refusal, got exit $rc"
  exit 1
fi
grep -q "admission budget" "$OUT/admit_stderr.txt"

# A collective_timeout past the clock's range means "no deadline", for the
# elastic control wait as for the collectives: the world must wait for
# each rebalance, not give up at once (the failure this guards exited 1
# with "no rebalance for epoch 0 within 1000000000000s"). Positive control:
# exit 0, verified, within 30 s.
step "A huge control timeout waits for every rebalance"
cat >"$OUT/huge_timeout.json" <<'EOF'
{"dist": {"ranks": 2, "elastic": true, "ckpt_iters": 300, "collective_timeout": 1e12},
 "requests": [{"id": "huge-timeout", "problem": "costas", "size": 12,
               "strategy": "multiwalk", "walkers": 4, "seed": 1}],
 "expect": {"results": 1, "all_solved": true}}
EOF
timeout -k 5 30 "$CAS_RUN" --scenario="$OUT/huge_timeout.json" \
    --out="$OUT/huge_timeout_report.json"
python3 tools/check_report.py "$OUT/huge_timeout.json" "$OUT/huge_timeout_report.json"

# The eviction story end to end: a 4-rank elastic world with checkpointing
# on, rank 2 hard-killed at its first epoch boundary (worst-timed: after
# its checkpoint write, before its epoch frame). The world must evict —
# not abort — rebalance the dead rank's walkers from its last wave file,
# and land the exact winner the scenario pins (the (solve iteration,
# walker-id) winner rule is membership-invariant). check_report.py validates the
# merged report like any other corpus entry.
step "Elastic world survives a SIGKILLed rank"
mkdir -p "$OUT/ckpt_evict"
"$CAS_RUN" --scenario="$S13" --ranks=4 --ckpt-dir="$OUT/ckpt_evict" \
    --die-rank=2 --die-at-epoch=1 --out="$OUT/evict_report.json"
python3 tools/check_report.py "$S13" "$OUT/evict_report.json"
python3 - "$OUT/evict_report.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))["results"][0]["extras"]["dist"]
assert d["evicted"] == [2], f"expected member 2 evicted, got {d['evicted']}"
assert d["comm"]["coordinator"]["evictions"] == 1
assert d["comm"]["coordinator"]["aborts"] == 0
EOF

# The failover story end to end: a 3-rank elastic world launched with
# --standby, member 0 — the coordinator host — SIGKILLed at epoch 2, after
# the wave-1 state_sync replicated the wave machine. The elected standby
# promotes itself, the survivor re-rendezvous through the epoch-stamped
# reconnect handshake, and the PROMOTED coordinator's report must satisfy
# the same pinned expect block as an unfailed run — bit-exact winner,
# independently re-verified — while recording the promotion. The negative
# control proves the kill is real: the same death without --standby must
# abort.
step "Coordinator failover survives member 0's death"
mkdir -p "$OUT/ckpt_failover"
"$CAS_RUN" --scenario="$S13" --ranks=3 --ckpt-dir="$OUT/ckpt_failover" --standby \
    --die-rank=0 --die-at-epoch=2 --out="$OUT/failover_report.json"
python3 tools/check_report.py "$S13" "$OUT/failover_report.json"
python3 - "$OUT/failover_report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["dist"]["promoted_from"] == 0, doc["dist"]
d = doc["results"][0]["extras"]["dist"]
assert d["promoted_from"] == 0, d
assert d["failovers"] >= 1, d
EOF
if "$CAS_RUN" --scenario="$S13" --ranks=3 --die-rank=0 --die-at-epoch=2 \
    --out="$OUT/no_standby_report.json"; then
  echo "negative control DID NOT FAIL: host death without --standby must abort"
  exit 1
fi

# The checkpoint/restore story: preempt a 3-rank hunt cleanly after two
# epochs (long before the pinned solve at segment 3), then resume it on 2
# ranks. The resumed report must satisfy the same expect block as an
# uninterrupted run — identical winner and iteration count — with the
# pre-preemption epochs accounted.
step "Whole-world preemption resumes at a different rank count"
mkdir -p "$OUT/ckpt_resume"
"$CAS_RUN" --scenario="$S13" --ranks=3 --ckpt-dir="$OUT/ckpt_resume" \
    --max-epochs=2 --out="$OUT/preempt_report.json"
python3 - "$OUT/preempt_report.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))["results"][0]
assert not r["solved"], "preempted run must not have solved yet"
assert r["extras"]["dist"]["preempted"] is True
EOF
"$CAS_RUN" --scenario="$S13" --ranks=2 --resume="$OUT/ckpt_resume" \
    --out="$OUT/resume_report.json"
python3 tools/check_report.py "$S13" "$OUT/resume_report.json"
python3 - "$OUT/resume_report.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["results"][0]["extras"]["dist"]["ckpt"]
assert c["resumed_from_epoch"] == 1, c
assert c["restored"] >= 1, c
EOF

# Fixed walker budget split across 1/2/4 ranks; the guard's invariants are
# machine-independent (solve rates, live comm counters, a generous
# overhead bound) so CI speed doesn't matter.
step "Scaling ladder + guard"
"$BUILD/bench_dist" --n=15 --reps=6 --json_out="$OUT/BENCH_dist.json"
python3 tools/check_bench.py BENCH_dist.json "$OUT/BENCH_dist.json"

echo "dist smoke: all steps passed"
