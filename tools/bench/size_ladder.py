#!/usr/bin/env python3
"""Size ladder: the AVX2 kernel tier against the auto tier at the paper's sizes.

For each Costas size and each seed, runs one cas_run under CAS_SIMD=avx2 and
one under the auto tier (CAS_SIMD unset), alternating which goes first, for
two measurements, and prints per size

  - capped: one walker stopped at --max-iters, iterations/s (summed
    iterations over summed wall time). Trajectories are bit-identical under
    every tier, so both tiers do the same work;
  - tts: mean time to solution of a --walkers multiwalk solve;

with auto / avx2 for each. The tier each run dispatched is read from its
report's provenance (simd_isa) and printed in the header.

  tools/bench/size_ladder.py --cas-run build-release/cas_run
  tools/bench/size_ladder.py --cas-run build/cas_run --sizes 17,18 --seeds 40,20

The default ladder (17-20 with 24, 12, 6 and 3 seeds) took 3.5 minutes on a
4-vCPU x86-64 host; the n = 20 solves take most of it and vary most. The
shifted-exponential fit and the predicted speedup of ROADMAP item 10 are not
computed here.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile

TIERS = ("avx2", "auto")


def int_list(text):
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad list '{text}' (want comma-separated integers)")
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(f"bad list '{text}' (want positive integers)")
    return values


def run(cas_run, tier, args, out):
    env = dict(os.environ)
    env.pop("CAS_SIMD", None)
    if tier != "auto":
        env["CAS_SIMD"] = tier
    subprocess.run([cas_run, *args, "--compact", f"--out={out}"], check=True, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    with open(out) as f:
        report = json.load(f)
    return report["provenance"]["simd_isa"], report["results"][0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cas-run", required=True, help="path to a Release cas_run binary")
    ap.add_argument("--sizes", type=int_list, default=[17, 18, 19, 20])
    ap.add_argument("--seeds", type=int_list, default=[24, 12, 6, 3],
                    help="seeds per size (seeds 1..k), one count per size")
    ap.add_argument("--max-iters", type=int, default=200000,
                    help="iteration cap of the one-walker runs")
    ap.add_argument("--walkers", type=int, default=4, help="walkers of the solves")
    opts = ap.parse_args()
    if len(opts.seeds) != len(opts.sizes):
        ap.error("--seeds needs one count per size")

    dispatched = {tier: set() for tier in TIERS}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        k = 0
        for n, count in zip(opts.sizes, opts.seeds):
            iters = {tier: 0 for tier in TIERS}
            capped_wall = {tier: 0.0 for tier in TIERS}
            tts = {tier: 0.0 for tier in TIERS}
            for seed in range(1, count + 1):
                order = TIERS if k % 2 == 0 else TIERS[::-1]
                k += 1
                for tier in order:
                    isa, capped = run(opts.cas_run, tier,
                                      [f"--size={n}", "--walkers=1", f"--seed={seed}",
                                       f"--max-iters={opts.max_iters}"], out)
                    dispatched[tier].add(isa)
                    iters[tier] += capped["total_iterations"]
                    capped_wall[tier] += capped["wall_seconds"]
                    isa, solve = run(opts.cas_run, tier,
                                     [f"--size={n}", f"--walkers={opts.walkers}",
                                      "--strategy=multiwalk", f"--seed={seed}"], out)
                    dispatched[tier].add(isa)
                    if not solve.get("solved"):
                        sys.exit(f"n={n} seed={seed} {tier}: unsolved")
                    tts[tier] += solve["wall_seconds"]
                print(f"n={n} seed {seed} ({order[0]} first): done", file=sys.stderr, flush=True)
            rate = {tier: iters[tier] / capped_wall[tier] for tier in TIERS}
            mean = {tier: tts[tier] / count for tier in TIERS}
            rows.append((n, count, rate, mean))

    names = ", ".join(f"{tier} ran {'/'.join(sorted(dispatched[tier]))}" for tier in TIERS)
    print(f"size ladder ({names}); capped: 1 walker, {opts.max_iters} iterations; "
          f"tts: {opts.walkers}-walker multiwalk")
    print(f"{'n':>3} {'seeds':>5} | {'capped it/s avx2':>16} {'auto':>10} {'auto/avx2':>9} | "
          f"{'tts avx2 s':>10} {'auto s':>8} {'auto/avx2':>9}")
    for n, count, rate, mean in rows:
        print(f"{n:>3} {count:>5} | {rate['avx2']:>16.0f} {rate['auto']:>10.0f} "
              f"{rate['auto'] / rate['avx2']:>9.3f} | {mean['avx2']:>10.4f} {mean['auto']:>8.4f} "
              f"{mean['auto'] / mean['avx2']:>9.3f}")


if __name__ == "__main__":
    main()
