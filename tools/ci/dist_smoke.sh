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
# hosts the rendezvous, siblings re-exec with identity flags) and runs the
# three multiwalk requests as three hunts on one long-lived world.
# check_report.py re-verifies every solution independently — the merged
# rank-0 report must be indistinguishable in shape from an in-process run.
step "4-process loopback scenario"
"$CAS_RUN" --scenario="$S12" --ranks=4 --out="$OUT/dist_report.json"
python3 tools/check_report.py "$S12" "$OUT/dist_report.json"

# A world serves: only the host runs the SolverService, so a request is
# resolved, priced, admitted, cached and deduplicated once, and only a
# request it executes opens a hunt. Positive control: the admission
# scenario passes its corpus contract unedited on a 2-rank world. Then three
# budgets below, between and above the host's prices reject 2, 1 and 0 of
# its requests and open 0, 1 and 2 hunts; every rank exits within 30 s
# (the launcher reaps its ranks, so a member left waiting is a timeout).
step "Admission in a world is decided once, on the host"
S8=tools/scenarios/s8_admission_budget.json
# A rejected request makes cas_run exit 1, as in the corpus job; a hang
# (timeout's 124), a crash or any other exit fails the step.
admitted_run() {
  local rc=0
  timeout -k 5 30 "$CAS_RUN" --scenario="$S8" --ranks=2 "$@" || rc=$?
  if [ "$rc" -gt 1 ]; then
    echo "admission run $*: expected exit 0 or 1, got $rc"
    exit 1
  fi
}
admitted_run --out="$OUT/admit_report.json"
python3 tools/check_report.py "$S8" "$OUT/admit_report.json"
for case in "1e-9 2 0" "0.1 1 1" "1000 0 2"; do
  read -r budget rejected hunts <<<"$case"
  admitted_run --admit-budget="$budget" --out="$OUT/admit_$budget.json"
  python3 - "$OUT/admit_$budget.json" "$rejected" "$hunts" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rejected, hunts = int(sys.argv[2]), int(sys.argv[3])
assert doc["service"]["rejected"] == rejected, doc["service"]
opened = sorted(r["extras"]["dist"]["hunt"] for r in doc["results"]
                if r.get("served_by") == "executed")
assert opened == list(range(1, hunts + 1)), f"expected {hunts} hunts, opened {opened}"
print(f"{sys.argv[1]}: rejected {rejected}, hunts {opened}")
EOF
done
# A cached request opens no hunt either: the cache scenario passes its
# contract on a 2-rank world, and only its executions open hunts.
S7=tools/scenarios/s7_dedup_cache_waves.json
timeout -k 5 30 "$CAS_RUN" --scenario="$S7" --ranks=2 --out="$OUT/cache_report.json"
python3 tools/check_report.py "$S7" "$OUT/cache_report.json"
python3 - "$OUT/cache_report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
opened = sorted(r["extras"]["dist"]["hunt"] for r in doc["results"]
                if r.get("served_by") == "executed")
assert opened == list(range(1, doc["service"]["executions"] + 1)), opened
assert doc["service"]["cache_hits"] >= 2, doc["service"]
print(f"cache hits {doc['service']['cache_hits']}, hunts {opened}")
EOF
# A checkpoint directory belongs to one hunt: the host refuses one with
# more than one request at once, before any rendezvous, and says why. A
# hang (timeout's 124) or a crash is a failure, and so is an exit without
# the reason.
rc=0
timeout 30 "$CAS_RUN" --scenario="$S12" --ranks=2 --ckpt-dir="$OUT/ckpt_refused" \
    --out="$OUT/ckpt_refused_report.json" 2>"$OUT/ckpt_refused_stderr.txt" || rc=$?
cat "$OUT/ckpt_refused_stderr.txt"
if [ "$rc" -eq 0 ] || [ "$rc" -eq 124 ] || [ "$rc" -gt 128 ]; then
  echo "negative control: expected a prompt refusal, got exit $rc"
  exit 1
fi
grep -q -- "--ckpt-dir and --resume take exactly one request" "$OUT/ckpt_refused_stderr.txt"
# A host that fails before its first hunt (a resume of an empty directory)
# opens none, and its close ends every member, so the launcher returns with
# the host's error report.
rc=0
mkdir -p "$OUT/ckpt_empty"
timeout -k 5 30 "$CAS_RUN" --scenario="$S13" --ranks=3 --resume="$OUT/ckpt_empty" \
    --out="$OUT/resume_empty_report.json" || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "a resume of an empty directory: expected exit 1 (an error report), got $rc"
  exit 1
fi

# Members hold no requests: hand-launched ranks 1-3 get only their identity
# and the coordinator's address, while rank 0 alone reads the scenario and
# hosts on a free port. Every hunt's definition comes from the host — for
# s13 its 300-iteration segments too — so the world names the loopback
# run's winners at the loopback run's iterations, and every member exits 0
# within 10 s of the host.
step "Members without a scenario follow the host's hunts"
free_port() {
  python3 -c 'import socket; s = socket.socket(); s.bind(("127.0.0.1", 0)); print(s.getsockname()[1])'
}
same_winners() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
def winners(path):
    return {r["request"]["id"]: (r["winner"], r["winner_iterations"])
            for r in json.load(open(path))["results"]}
a, b = winners(sys.argv[1]), winners(sys.argv[2])
assert a == b, f"{sys.argv[1]}: {a} != {sys.argv[2]}: {b}"
print(f"same winners: {a}")
EOF
}
for scenario in "$S12" "$S13"; do
  name=$(basename "$scenario" .json)
  "$CAS_RUN" --scenario="$scenario" --ranks=4 --out="$OUT/${name}_loopback.json"
  port=$(free_port)
  "$CAS_RUN" --scenario="$scenario" --ranks=4 --coordinator="127.0.0.1:$port" \
      --out="$OUT/${name}_hand.json" &
  host=$!
  members=()
  for r in 1 2 3; do
    "$CAS_RUN" --ranks=4 --rank="$r" --coordinator="127.0.0.1:$port" &
    members+=($!)
  done
  wait "$host"
  deadline=$((SECONDS + 10))
  for pid in "${members[@]}"; do
    while kill -0 "$pid" 2>/dev/null && [ "$SECONDS" -lt "$deadline" ]; do sleep 0.1; done
    if kill -0 "$pid" 2>/dev/null; then
      echo "member $pid still running 10 s after the host returned"
      kill -9 "${members[@]}" 2>/dev/null || true
      exit 1
    fi
    wait "$pid"
  done
  python3 tools/check_report.py "$scenario" "$OUT/${name}_hand.json"
  same_winners "$OUT/${name}_loopback.json" "$OUT/${name}_hand.json"
done

# A collective_timeout (the wait for each rebalance) past the clock's range
# means "no deadline": the world must wait for each rebalance, not give up
# at once (the failure this guards exited 1
# with "no rebalance for epoch 0 within 1000000000000s"). Positive control:
# exit 0, verified, within 30 s.
step "A huge control timeout waits for every rebalance"
cat >"$OUT/huge_timeout.json" <<'EOF'
{"dist": {"ranks": 2, "ckpt_iters": 300, "collective_timeout": 1e12},
 "requests": [{"id": "huge-timeout", "problem": "costas", "size": 12,
               "strategy": "multiwalk", "walkers": 4, "seed": 1}],
 "expect": {"results": 1, "all_solved": true}}
EOF
timeout -k 5 30 "$CAS_RUN" --scenario="$OUT/huge_timeout.json" \
    --out="$OUT/huge_timeout_report.json"
python3 tools/check_report.py "$OUT/huge_timeout.json" "$OUT/huge_timeout_report.json"

# The eviction story end to end: a 4-rank world with checkpointing
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

# The failover story end to end: a 3-rank world launched with
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
