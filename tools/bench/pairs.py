#!/usr/bin/env python3
"""Alternating perfbench pairs: a parent checkout against a change checkout.

For each seed, runs `perfbench/run.py` once in each checkout, alternating
which side goes first (the first seed starts with the parent), and prints

  - per pair, both sides' value and change / parent for every metric the
    runs report (the end-to-end metrics; the per-layer ones too with
    --trace 1);
  - per metric, both sides' median and the median of the per-pair ratios.

A run that exits non-zero, prints no JSON result or reports failed > 0
stops the whole comparison. Each checkout builds its own Release
cas_perfbench under .bench_build/ on its first run.

  tools/bench/pairs.py --parent ../parent --change . --workload solve_n17 \\
      --seeds 1-5 --seconds 55
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text):
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad seed range '{text}' (want A-B with 1 <= A <= B)")
    return range(lo, hi + 1)


def checkout(text):
    path = Path(text).resolve()
    if not (path / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"no perfbench/run.py under {path}")
    return path


def run(root, opts, seed):
    cmd = [sys.executable, "perfbench/run.py", f"--workload={opts.workload}", f"--seed={seed}",
           f"--seconds={opts.seconds}", f"--trace={opts.trace}"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root}: seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if result.get("failed", 0) > 0:
        sys.exit(f"{root}: seed {seed} failed {result['failed']} of {result.get('attempted')}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=checkout, help="the parent's checkout")
    ap.add_argument("--change", required=True, type=checkout, help="the change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_range, help="inclusive seed range A-B")
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    pairs = []
    for k, seed in enumerate(opts.seeds):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        got = {side: run(getattr(opts, side), opts, seed) for side in sides}
        pairs.append(got)
        print(f"seed {seed} ({sides[0]} first):", flush=True)
        for name in sorted(got["parent"].keys() & got["change"].keys()):
            a, b = got["parent"][name], got["change"][name]
            ratio = f"{b / a:.3f}" if a else "n/a"
            print(f"  {name:36s} parent {a:<14.6g} change {b:<14.6g} change/parent {ratio}",
                  flush=True)

    names = sorted(set.intersection(*(p["parent"].keys() & p["change"].keys() for p in pairs)))
    print(f"{opts.workload}, {len(pairs)} pairs, seeds {opts.seeds.start}-{opts.seeds.stop - 1}, "
          f"{opts.seconds:g} s each:")
    for name in names:
        parent = statistics.median(p["parent"][name] for p in pairs)
        change = statistics.median(p["change"][name] for p in pairs)
        ratios = [p["change"][name] / p["parent"][name] for p in pairs if p["parent"][name]]
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "n/a"
        print(f"  {name:36s} median parent {parent:<14.6g} change {change:<14.6g} "
              f"median change/parent {ratio}")


if __name__ == "__main__":
    main()
