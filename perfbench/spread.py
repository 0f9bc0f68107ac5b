"""Steadiness check: run the benchmark over several seeds and report spreads.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload pr-lj --runs 10

It runs seeds 1 to ``--runs``.  For each end-to-end metric of
``BENCHMARK.json`` it prints the median of the runs and the interquartile range (``statistics.quantiles(values,
n=4)``) as a share of that median, next to the metric's bound.  A spread
above a third of its bound is flagged.  Exits non-zero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    section = spec["end_to_end"]
    samples = {m["name"]: [] for m in section}
    walls = []
    for seed in range(1, args.runs + 1):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        walls.append(time.monotonic() - t0)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout)
            print("seed %d failed (exit %d)" % (seed, proc.returncode))
            return 1
        for name in samples:
            samples[name].append(result["metrics"][name]["value"])
        print("seed %d: %.1f s  %s" % (seed, walls[-1], "  ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in samples.items())), flush=True)
    print("%s: %d runs, wall median %.1f s, max %.1f s"
          % (args.workload, args.runs, statistics.median(walls), max(walls)))
    for metric in section:
        values = samples[metric["name"]]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid if mid else float("nan")
        bound = metric["bound"]
        flag = "  > bound/3" if spread > bound / 3 else ""
        print("  %-34s median %-14.6g spread %6.2f%%  bound %.0f%%%s"
              % (metric["name"], mid, 100 * spread, 100 * bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
