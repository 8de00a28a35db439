#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
named workload and prints, per metric, the median and the distance
between the first and third quartile as a share of the median (the
figure a metric's bound in BENCHMARK.json must exceed).

    python3 perfbench/spread.py [--seeds N] [--first-seed S] [--trace 0|1] [workload ...]

Run it from the repository root; with no workloads it runs all of
them. Each run's result line is appended to the file named by --log
(default: .bench_build/perfbench-spread.jsonl).
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log", default=".bench_build/perfbench-spread.jsonl")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", w,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", args.trace,
            ]
            run = subprocess.run(cmd, capture_output=True, text=True)
            last = run.stdout.strip().splitlines()[-1:] or [""]
            try:
                result = json.loads(last[0])
            except json.JSONDecodeError:
                print(f"{w} seed {seed}: no result (exit {run.returncode})")
                print(run.stderr[-2000:], file=sys.stderr)
                ok = False
                continue
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": w, "seed": seed, "result": result}) + "\n")
            if not result["correct"] or run.returncode != 0:
                print(f"{w} seed {seed}: output check failed (exit {run.returncode})")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of its bound"
            print(f"{w:13} {name:16} median {med:<14.6g} spread {spread:6.1%}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
