#!/usr/bin/env python3
"""Bench trajectory guard: diff a freshly-emitted BENCH_micro*.json against
the checked-in reference and fail on a real regression.

Usage: check_bench.py REFERENCE.json CURRENT.json [--max-regression 0.25]

The primary gate is machine-independent: the SPEEDUP RATIOS the repo's perf
story rests on (incremental delta evaluation vs the do/undo baseline). For
every size present in both files, current_ratio must stay within
--max-regression of reference_ratio. Absolute per-cell rates are only
REPORTED — CI runners and the reference machine differ too much in raw
speed for an absolute gate to be meaningful (the provenance stamps say
exactly which machine/flags produced each file).

Pairs guarded (delta-path bench vs its do/undo counterpart):
  BM_EngineIterations<x>/N          vs BM_EngineIterationsDoUndo/N
  BM_DeltaCost/N                    vs BM_CostIfSwapDoUndo/N

Serving benchmark (BENCH_serve.json, emitted by cas_load): when the
CURRENT file carries a "serve" block the guard switches to the serving
invariants, which are load-shape rather than machine-speed facts:
  - sustained_rps >= --min-sustained-rps (the cached-hit floor; the
    protocol + event loop overhead must not swamp the cache path)
  - shed_engaged must be true when the run was priced (--shed-budget):
    over-budget requests were rejected at the edge, not queued
  - the server saturated (saturation_rps > 0) rather than letting
    latency grow without bound
  - vs a reference that also has a serve block: sustained_rps within
    --serve-slack (generous — absolute RPS is machine-dependent; this
    only catches a collapse, e.g. the event loop degrading to busy-wait)
References predating the serving layer simply lack the block; the
comparative check is skipped and the file stays a valid reference.

Distributed benchmark (BENCH_dist.json, emitted by bench_dist): when the
CURRENT file carries a "dist" block the guard checks the scaling ladder's
machine-independent invariants:
  - every rung solved something, and its solve rate within the budget
    stays above --min-dist-solve-rate
  - multi-rank rungs actually communicated (frames_sent and waves both
    nonzero — a silent fallback to one process would otherwise read as a
    perfect bench)
  - the ladder covers more than one rank count
  - splitting a FIXED walker budget across ranks must not multiply wall
    time beyond --dist-overhead x the single-rank rung (generous: solve
    times are exponentially distributed and the rungs are small samples;
    this catches a pathological communicator, not noise)
References predating the distributed backend lack the block and stay
valid, exactly like pre-serving references.
"""

import argparse
import json
import sys

# (fast numerator, slow denominator) stems; the guarded metric is
# items_per_second(fast) / items_per_second(slow) per matching size.
PAIRS = [
    ("BM_EngineIterations", "BM_EngineIterationsDoUndo"),
    ("BM_EngineIterationsEvalBound", "BM_EngineIterationsEvalBoundDoUndo"),
    ("BM_DeltaCost", "BM_CostIfSwapDoUndo"),
    # PR 4 vectorized kernels vs their scalar/per-j baselines. Absent from
    # references predating the SIMD layer; a pair is only scored when both
    # files carry both benches, so older refs stay valid.
    ("BM_DeltaRow", "BM_DeltaRowPerJ"),
    ("BM_DeltaRow", "BM_DeltaRowScalar"),
    ("BM_CulpritScan", "BM_CulpritScanScalar"),
    # PR 5 batched reset evaluation vs the per-candidate evaluate_bounded
    # loop and the scalar batch walk. Same absence tolerance as above.
    ("BM_ResetBatch", "BM_ResetBatchPerCandidate"),
    ("BM_ResetBatch", "BM_ResetBatchScalar"),
]


def rates(doc):
    out = {}
    for r in doc.get("results", []):
        if "items_per_second" in r:
            out[r["name"]] = r["items_per_second"]
    return out


def check_serve(ref_doc, cur_doc, args):
    """Guard the cas_load serving benchmark. Returns (ran, failures)."""
    cur = cur_doc.get("serve")
    if cur is None:
        return False, []
    failures = []
    sustained = float(cur.get("sustained_rps", 0.0))
    saturation = float(cur.get("saturation_rps", 0.0))
    print(f"  serve: sustained {sustained:.0f} rps, saturation target "
          f"{saturation:.0f} rps, cost sheds {cur.get('cost_sheds', 0)}")
    # A bench taken with an ARMED fault injector measures the injected
    # faults, not the server: its numbers must never become a reference or
    # pass for a clean run. The fault layer compiled in but DISARMED is the
    # normal (and guarded) configuration — cas_load stamps which one it was.
    if cur.get("fault_layer_armed", False) and not args.allow_fault_armed:
        failures.append("fault_layer_armed is true: this bench ran with an "
                        "armed fault injector (pass --allow-fault-armed only "
                        "for deliberate chaos-bench comparisons)")
    if sustained < args.min_sustained_rps:
        failures.append(f"sustained_rps {sustained:.0f} < floor "
                        f"{args.min_sustained_rps:.0f}")
    if not cur.get("shed_engaged", False):
        failures.append("shed_engaged is false: over-budget requests were "
                        "not priced and rejected at the edge")
    if saturation <= 0:
        failures.append("server never saturated within the phase ladder "
                        "(no bounded-latency evidence)")
    ref = ref_doc.get("serve")
    if ref is None:
        print("  serve: reference has no serve block (pre-serving ref) — "
              "comparative check skipped")
    else:
        ref_sustained = float(ref.get("sustained_rps", 0.0))
        if ref_sustained > 0:
            change = sustained / ref_sustained - 1.0
            status = "OK"
            if change < -args.serve_slack:
                status = "REGRESSION"
                failures.append(f"sustained_rps {change:+.1%} vs reference "
                                f"(slack {args.serve_slack:.0%})")
            print(f"  serve: sustained vs reference "
                  f"{ref_sustained:.0f} -> {sustained:.0f} rps "
                  f"({change:+.1%}) {status}")
    return True, failures


def check_dist(cur_doc, args):
    """Guard the bench_dist scaling ladder. Returns (ran, failures)."""
    cur = cur_doc.get("dist")
    if cur is None:
        return False, []
    failures = []
    ladder = cur.get("ladder", [])
    rank_counts = {r.get("ranks") for r in ladder}
    if len(rank_counts) < 2 or max(rank_counts, default=0) < 2:
        failures.append(f"dist ladder covers ranks {sorted(rank_counts)}: "
                        "need at least two rungs including a multi-rank one")
    single_wall = None
    for rung in ladder:
        ranks = rung.get("ranks", 0)
        rate = float(rung.get("solve_rate", 0.0))
        wall = float(rung.get("mean_wall_seconds", 0.0))
        print(f"  dist: ranks={ranks} solved {rung.get('solved', 0)}/"
              f"{rung.get('reps', 0)} mean wall {wall:.3f}s "
              f"frames {rung.get('frames_sent', 0)} "
              f"waves {rung.get('waves', 0)}")
        if rung.get("solved", 0) < 1:
            failures.append(f"dist ranks={ranks}: nothing solved")
        if rate < args.min_dist_solve_rate:
            failures.append(f"dist ranks={ranks}: solve rate {rate:.0%} < floor "
                            f"{args.min_dist_solve_rate:.0%}")
        if ranks > 1 and (rung.get("frames_sent", 0) <= 0
                          or rung.get("waves", 0) <= 0):
            failures.append(f"dist ranks={ranks}: no communication recorded "
                            "(frames/waves zero)")
        if ranks == 1:
            single_wall = wall
    if single_wall and single_wall > 0:
        for rung in ladder:
            if rung.get("ranks", 0) <= 1:
                continue
            wall = float(rung.get("mean_wall_seconds", 0.0))
            if wall > args.dist_overhead * single_wall:
                failures.append(
                    f"dist ranks={rung['ranks']}: mean wall {wall:.3f}s is "
                    f"{wall / single_wall:.1f}x the single-rank rung "
                    f"(bound {args.dist_overhead:.0f}x)")
    return True, failures


def ratios(table):
    # Keyed on "fast/size|slow": one fast stem can anchor several pairs
    # (BM_DeltaRow is scored against both its per-j and scalar baselines).
    found = {}
    for fast_stem, slow_stem in PAIRS:
        for name, rate in table.items():
            stem, _, size = name.partition("/")
            if stem != fast_stem or not size:
                continue
            slow = table.get(f"{slow_stem}/{size}")
            if slow:
                found[f"{fast_stem}/{size}|{slow_stem}"] = rate / slow
    return found


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("reference")
    ap.add_argument("current")
    ap.add_argument("--max-regression", type=float, default=0.25)
    ap.add_argument("--min-sustained-rps", type=float, default=500.0,
                    help="absolute cached-hit throughput floor for the serve "
                         "benchmark (load-shape fact, not machine speed)")
    ap.add_argument("--allow-fault-armed", action="store_true",
                    help="accept a serve bench taken with an armed fault "
                         "injector (chaos comparisons only; by default such "
                         "a file fails the guard)")
    ap.add_argument("--serve-slack", type=float, default=0.60,
                    help="allowed sustained_rps drop vs the reference serve "
                         "block (generous: machines differ)")
    ap.add_argument("--min-dist-solve-rate", type=float, default=0.5,
                    help="per-rung floor on the fraction of bench_dist "
                         "requests solved within their budget")
    ap.add_argument("--dist-overhead", type=float, default=10.0,
                    help="multi-rank mean wall time may be at most this "
                         "multiple of the single-rank rung (catches a "
                         "pathological communicator, not noise)")
    args = ap.parse_args()

    ref_doc = json.load(open(args.reference))
    cur_doc = json.load(open(args.current))
    ref, cur = rates(ref_doc), rates(cur_doc)
    ref_ratios, cur_ratios = ratios(ref), ratios(cur)
    common = sorted(set(ref_ratios) & set(cur_ratios))

    serve_ran, serve_failures = check_serve(ref_doc, cur_doc, args)
    dist_ran, dist_failures = check_dist(cur_doc, args)
    if not common and not serve_ran and not dist_ran:
        print("check_bench: FAIL: no guarded speedup pair present in both files, "
              "no serve block, and no dist block (the guard would be vacuous)",
              file=sys.stderr)
        sys.exit(1)

    failures = list(serve_failures) + list(dist_failures)
    for name in common:
        r, c = ref_ratios[name], cur_ratios[name]
        change = c / r - 1.0
        status = "OK"
        if change < -args.max_regression:
            status = "REGRESSION"
            failures.append(name)
        print(f"  {name:<40} speedup ref={r:6.2f}x cur={c:6.2f}x ({change:+.1%}) {status}")

    # Absolute rates: informational only (machines differ).
    for name in sorted(set(ref) & set(cur)):
        change = cur[name] / ref[name] - 1.0
        print(f"  [abs] {name:<40} {change:+8.1%}")

    if failures:
        print(f"check_bench: FAIL: {failures}", file=sys.stderr)
        sys.exit(1)
    parts = []
    if common:
        parts.append(f"{len(common)} speedup pairs within "
                     f"{args.max_regression:.0%} of reference")
    if serve_ran:
        parts.append("serve invariants hold")
    if dist_ran:
        parts.append("dist scaling invariants hold")
    print(f"check_bench: OK ({'; '.join(parts)})")


if __name__ == "__main__":
    main()
