#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs each workload several times,
each with another seed, and reports every end-to-end metric's median and
its spread (the distance between the first and third quartile, as a share
of the median) next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [workload ...]

Run it from the root of a checkout. It goes through perfbench/run.py, the
same command the benchmark documents, and prints one row per workload and
metric. A spread above a third of the bound is marked `!`, above the bound
`FAIL`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for run in range(args.runs):
            seed = args.first_seed + run
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            started = time.monotonic()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - started
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stdout}\n{done.stderr}")
            result = json.loads(lines[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            steal = next((l.split()[1] for l in lines if l.startswith("host:")), "?")
            print(f"{workload} seed {seed} ({wall:.0f} s, steal {steal}): "
                  + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        for name, bound in bounds.items():
            s = spread(values[name])
            worst = max(worst, s / bound)
            mark = "FAIL" if s > bound else ("!" if s > bound / 3 else "")
            print(f"  {workload:<11} {name:<16} median {statistics.median(values[name]):>10.4f}  "
                  f"spread {s:6.3f}  bound {bound:.2f}  {mark}", flush=True)
    print(f"worst spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
