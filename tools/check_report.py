#!/usr/bin/env python3
"""Validate a cas_run report against its scenario's `expect` block.

Usage: check_report.py SCENARIO.json REPORT.json

Always enforced, for every report:
  * provenance is stamped (git_sha / compiler / timestamp_utc / simd_isa);
  * the service stats block is present and internally consistent
    (completed == executions + dedup_hits + cache_hits + rejected);
  * every result echoes a nonzero seed (stochastic seed-0 requests must
    have drawn one), carries a known served_by, and an error is only
    acceptable on an admission rejection named in expect.rejected_ids;
  * solved results pass the report's own verifier flag AND, for Costas,
    an independent re-verification of the Costas property done here.

The scenario's optional `expect` object adds:
  results        exact number of results
  all_solved     every result solved
  solved_ids / unsolved_ids / rejected_ids
                 per-request outcome pins
  served_by      {request_id: "executed"|"dedup"|"cache"|"rejected"}
  service        {counter: exact-int | {"min": n} | {"max": n} | both}
  winner         {request_id: {report-field: exact | {"min"/"max"} bound}}
                 pins on the winner's stats fields of a solved result
                 (e.g. winner_custom_reset_escapes, winner_reset_seconds,
                 winner_reset_candidates — the reset-phase observability
                 counters)
"""

import json
import sys

SERVED_BY = {"executed", "dedup", "cache", "rejected"}


def fail(msg):
    print(f"check_report: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def is_costas(perm):
    """Independent Costas verification: a permutation whose difference
    triangle has distinct entries in every row."""
    n = len(perm)
    if sorted(perm) != list(range(min(perm), min(perm) + n)):
        return False
    for d in range(1, n - 1):
        diffs = [perm[i + d] - perm[i] for i in range(n - d)]
        if len(diffs) != len(set(diffs)):
            return False
    return True


def check_bound(name, value, bound):
    if isinstance(bound, dict):
        if "min" in bound and value < bound["min"]:
            fail(f"{name} = {value} < min {bound['min']}")
        if "max" in bound and value > bound["max"]:
            fail(f"{name} = {value} > max {bound['max']}")
    elif value != bound:
        fail(f"{name} = {value}, expected {bound}")


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} SCENARIO.json REPORT.json")
    scenario = json.load(open(sys.argv[1]))
    report = json.load(open(sys.argv[2]))
    expect = scenario.get("expect", {}) if isinstance(scenario, dict) else {}

    # --- provenance & service stats ------------------------------------
    prov = report.get("provenance", {})
    missing = {"git_sha", "compiler", "timestamp_utc", "simd_isa"} - set(prov)
    if missing:
        fail(f"provenance missing {sorted(missing)}")
    service = report.get("service")
    if not isinstance(service, dict):
        fail("report has no service stats block")
    served_sum = sum(service[k] for k in ("executions", "dedup_hits", "cache_hits", "rejected"))
    if service["completed"] != served_sum:
        fail(f"service stats inconsistent: completed={service['completed']} != "
             f"executions+dedup+cache+rejected={served_sum}")

    results = report.get("results", [])
    if not results:
        fail("report has no results")
    by_id = {}
    for r in results:
        rid = r.get("request", {}).get("id", f"#{len(by_id)}")
        by_id[rid] = r

    rejected_ids = set(expect.get("rejected_ids", []))

    # --- per-result invariants -----------------------------------------
    for rid, r in by_id.items():
        req = r["request"]
        served = r.get("served_by")
        if served is not None and served not in SERVED_BY:
            fail(f"{rid}: unknown served_by '{served}'")
        if r.get("error"):
            if rid not in rejected_ids:
                fail(f"{rid}: unexpected error: {r['error']}")
            if served != "rejected" or "admission rejected" not in r["error"]:
                fail(f"{rid}: error is not an admission rejection: {r['error']}")
            continue
        # Executed work must echo a nonzero seed (stochastic seed-0
        # requests draw one per execution); a rejection never executes,
        # so it legitimately still carries seed 0 — checked after the
        # rejection branch above.
        if int(req.get("seed", 0)) == 0:
            fail(f"{rid}: echoed request has seed 0 (stochastic draw missing)")
        if r.get("solved"):
            if "check_passed" in r and not r["check_passed"]:
                fail(f"{rid}: solver verifier rejected the solution")
            if req["problem"] == "costas" and not is_costas(r["solution"]):
                fail(f"{rid}: independent Costas verification FAILED: {r['solution']}")
        else:
            if r.get("winner", -1) != -1:
                fail(f"{rid}: unsolved but winner = {r['winner']}")

    # --- expectations ---------------------------------------------------
    if "results" in expect and len(results) != expect["results"]:
        fail(f"expected {expect['results']} results, got {len(results)}")
    if expect.get("all_solved") and not all(r.get("solved") for r in results):
        unsolved = [i for i, r in by_id.items() if not r.get("solved")]
        fail(f"expected all solved; unsolved: {unsolved}")
    for rid in expect.get("solved_ids", []):
        if not by_id.get(rid, {}).get("solved"):
            fail(f"expected {rid} solved")
    for rid in expect.get("unsolved_ids", []):
        if by_id.get(rid, {}).get("solved"):
            fail(f"expected {rid} unsolved")
    for rid in rejected_ids:
        if by_id.get(rid, {}).get("served_by") != "rejected":
            fail(f"expected {rid} rejected, got served_by="
                 f"{by_id.get(rid, {}).get('served_by')}")
    for rid, served in expect.get("served_by", {}).items():
        actual = by_id.get(rid, {}).get("served_by")
        if actual != served:
            fail(f"expected {rid} served_by {served}, got {actual}")
    for name, bound in expect.get("service", {}).items():
        if name not in service:
            fail(f"service stats missing counter '{name}'")
        check_bound(f"service.{name}", service[name], bound)
    for rid, pins in expect.get("winner", {}).items():
        r = by_id.get(rid)
        if r is None:
            fail(f"winner pins name unknown request id '{rid}'")
        if not r.get("solved"):
            fail(f"winner pins on {rid} require a solved result")
        for field, bound in pins.items():
            if field not in r:
                fail(f"{rid}: report missing winner field '{field}'")
            check_bound(f"{rid}.{field}", r[field], bound)

    print(f"check_report: OK ({sys.argv[1]}: {len(results)} results, "
          f"executions={service['executions']} dedup={service['dedup_hits']} "
          f"cache={service['cache_hits']} rejected={service['rejected']})")


if __name__ == "__main__":
    main()
