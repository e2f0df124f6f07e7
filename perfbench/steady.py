#!/usr/bin/env python3
"""Steadiness check: runs one workload k times, each with its own seed.

    python3 perfbench/steady.py --workload W [--runs 10] [--first-seed 1]
                                [--seconds T] [--trace 0|1]

For every metric it prints the median, the first and third quartile
(statistics.quantiles(values, n=4)), and the spread (q3 - q1) / median
beside the metric's bound in BENCHMARK.json and a third of it. Run it from
the checkout root. Exits 1 when a run fails or reports correct: false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        wall = time.monotonic() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"seed {seed}: {wall:5.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} " +
              " ".join(f"{k}={m['value']:.4g}"
                       for k, m in result["metrics"].items()))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{args.workload}: {args.runs} runs of {seconds}s")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'bound/3':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], None, vals[0]))
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            mark = "ok" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:28} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
              f"{bound if bound is not None else '':>6} "
              f"{bound / 3 if bound is not None else '':>8.4} {mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
