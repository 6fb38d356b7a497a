#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload trace-tcp --seeds 1-10 [--seconds 40] [--trace 0]

For every end-to-end metric (per-layer with --trace 1) it prints the median
of the runs and the distance between the first and third quartile as a
share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound from BENCHMARK.json. Runs whose output checks fail still
count (their metrics are measured all the same) but are listed, and make
the script exit with code 1; a run that prints no result stops it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    table = bench["per_layer" if args.trace else "end_to_end"]
    values = {m["name"]: [] for m in table}
    failed = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        run = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = run.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"seed {seed}: no result (exit {run.returncode})")
            return 1
        if run.returncode != 0 or not res["correct"]:
            failed.append(seed)
            print(f"seed {seed}: output check failed: {res['failed']} of {res['attempted']} trials (exit {run.returncode})")
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={values[n][-1]:.6g}" for n in values), flush=True)
    print(f"{'metric':26} {'median':>14} {'IQR/median':>11} {'bound':>6}")
    for m in table:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{m['name']:26} {med:14.6g} {spread:11.4f} {m.get('bound', ''):>6}")
    if failed:
        print("runs with failed output checks: seeds " + ", ".join(map(str, failed)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
