#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command of BENCHMARK.json ten times on each of its
workloads (untraced), with seeds 1 to 10, then prints, per workload
and metric, the median of the runs and the distance between the first
and third quartile as a share of the median (Python's
statistics.quantiles(values, n=4)), next to the metric's bound.

The seed changes from run to run, so that the bounds cover input
variation as well as host noise.  The runs' stamps must match in
everything else but the commit and the workload.

    python3 perfbench/steadiness.py

Run it from the root of the checkout.
"""
import json
import statistics
import subprocess
import sys
import time

RUNS = 10
FIRST_SEED = 1

# stamp fields that may differ between the runs that are pooled
VARYING = ("commit", "seed", "workload")


def run_once(bench, workload, seed, stamps, wall):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    wall[workload].append(time.monotonic() - t0)
    lines = out.stdout.strip().splitlines()
    stamp = dict(f.split("=", 1) for f in lines[0].split()[1:])
    stamps.add(tuple(sorted((k, v) for k, v in stamp.items() if k not in VARYING)))
    if len(stamps) > 1:
        sys.exit(f"runs with different stamps cannot be compared: {stamps}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    raw, stamps, wall = {}, set(), {w: [] for w in workloads}
    for w in workloads:
        raw[w] = [run_once(bench, w, FIRST_SEED + i, stamps, wall)
                  for i in range(RUNS)]
        print(f"{w}: {RUNS} runs done", file=sys.stderr, flush=True)
    print("| workload | metric | median | spread (q3-q1)/median | bound | bound/3 |")
    print("|---|---|---|---|---|---|")
    for w in workloads:
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in raw[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"| {w} | {m['name']} | {med:.6g} {m['unit']} | {spread:.4f} "
                  f"| {m['bound']} | {m['bound'] / 3:.4f} |")
    print()
    for w in workloads:
        print(f"{w}: wall seconds per run: median {statistics.median(wall[w]):.1f}, "
              f"max {max(wall[w]):.1f}")


if __name__ == "__main__":
    main()
