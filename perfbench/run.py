#!/usr/bin/env python3
"""Benchmark entry point: builds the Release cas_perfbench from source, then runs it.

    python3 perfbench/run.py --workload solve_n17 --seed 1 --seconds 30 --trace 0

Run from the repository root. The build lives in .bench_build/perfbench and
is reused across runs; build output goes to stderr, so the last line of
stdout is cas_perfbench's JSON result. Exits non-zero without a result when
the sources are missing, the build fails, or the environment would distort
the numbers (fault injection armed or the SIMD backend pinned).
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("solve_n17", "serve_mix", "elastic_n17")
DISTORTING_ENV = ("CAS_FAULT_PLAN", "CAS_DISK_FAULT_PLAN", "CAS_SIMD")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for var in DISTORTING_ENV:
        if os.environ.get(var):
            print(f"run.py: refusing to measure with {var} set", file=sys.stderr)
            return 3

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        print(f"run.py: no repository sources next to {bench_dir.name}/", file=sys.stderr)
        return 2

    build = root / ".bench_build" / "perfbench"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "-j", jobs,
                  "--target", "cas_perfbench", "cas_serve"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    work = build / "run"
    cmd = [str(build / "cas_perfbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--serve-bin={build / 'cas' / 'cas_serve'}", f"--work-dir={work}"]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
