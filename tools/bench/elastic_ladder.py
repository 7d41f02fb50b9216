#!/usr/bin/env python3
"""Paired-seed ladder: elastic vs in-process time to solution.

For each seed, runs one Costas hunt in-process and then the same request as
a 2-rank loopback world (`--ranks=2`), one after the
other, and prints

  - the summed wall ratio: sum of the elastic reports' wall_seconds over the
    sum of the in-process ones;
  - the iterations ratio: summed total_iterations, elastic over in-process;
  - how many seeds name the same winner walker on both paths.

In-process runs keep first-win and elastic runs rank winners by (solve
iteration, walker id), so the two may name different walkers on a seed.

  tools/bench/elastic_ladder.py --cas-run build/cas_run --size 17 \\
      --walkers 4 --ckpt-iters 5000 --seeds 401-440
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile


def seed_range(text):
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad seed range '{text}' (want A-B with 1 <= A <= B)")
    return range(lo, hi + 1)


def run(cas_run, args, out):
    subprocess.run([cas_run, *args, f"--out={out}"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    with open(out) as f:
        result = json.load(f)["results"][0]
    if not result.get("solved"):
        sys.exit(f"unsolved run: {' '.join(args)}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cas-run", required=True, help="path to a cas_run binary")
    ap.add_argument("--size", type=int, default=17)
    ap.add_argument("--walkers", type=int, default=4)
    ap.add_argument("--ckpt-iters", type=int, default=0,
                    help="elastic segment length (0 = cas_run's default)")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("401-440"),
                    help="inclusive seed range A-B")
    opts = ap.parse_args()

    base = [f"--size={opts.size}", f"--walkers={opts.walkers}", "--strategy=multiwalk"]
    elastic = ["--ranks=2"]
    if opts.ckpt_iters > 0:
        elastic.append(f"--ckpt-iters={opts.ckpt_iters}")
    wall = {"inproc": 0.0, "elastic": 0.0}
    iters = {"inproc": 0, "elastic": 0}
    same = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for seed in opts.seeds:
            a = run(opts.cas_run, [*base, f"--seed={seed}"], out)
            b = run(opts.cas_run, [*base, f"--seed={seed}", *elastic], out)
            for key, r in (("inproc", a), ("elastic", b)):
                wall[key] += r["wall_seconds"]
                iters[key] += r["total_iterations"]
            same += a["winner"] == b["winner"]
            print(f"seed {seed}: in-process {a['wall_seconds']:.3f}s walker {a['winner']}, "
                  f"elastic {b['wall_seconds']:.3f}s walker {b['winner']}", flush=True)
    n = len(opts.seeds)
    segments = opts.ckpt_iters if opts.ckpt_iters > 0 else "default"
    print(f"n={opts.size} walkers={opts.walkers} ckpt_iters={segments} seeds "
          f"{opts.seeds.start}-{opts.seeds.stop - 1}")
    print(f"summed wall: elastic {wall['elastic']:.3f}s / in-process {wall['inproc']:.3f}s "
          f"= {wall['elastic'] / wall['inproc']:.3f}")
    print(f"iterations: elastic / in-process = {iters['elastic'] / iters['inproc']:.3f}")
    print(f"same winner: {same}/{n}")


if __name__ == "__main__":
    main()
