#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports, for every
metric it prints, the median, the quartiles and the spread
(q3 - q1) / median.

Usage, from the repository root:

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--trace 0]
                                [--first-seed 1] [--out FILE] [--against FILE]

It runs the command in BENCHMARK.json once per seed (seeds first-seed,
first-seed + 1, ...) with BENCHMARK.json's run_seconds, and flags every
end-to-end metric whose spread is not below a third of its bound.
`setup_s` is left out of that flag: the acceptance rule bounds only how
far its median moves between two sets of runs, not its spread, since a
set-up of a few milliseconds carries the host's noise at full size.

With `--against` a report that `--out` wrote earlier, it also prints how
far each end-to-end median moved from that report, as a share of the
earlier median, and flags every move to the worse side beyond the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} failed a gate: {result}")
    # Every `metric <name> <value> <unit>` line: the result line's metrics
    # plus the workload-specific figures printed above it.
    for line in lines:
        parts = line.split(" ")
        if parts[0] == "metric" and len(parts) == 4:
            result["metrics"].setdefault(parts[1], {"value": float(parts[2]), "unit": parts[3]})
    return result, elapsed


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    gated = {m["name"]: m for m in bench["end_to_end"]}

    report = {}
    for w in names:
        runs = []
        for i in range(args.runs):
            result, elapsed = run_once(bench, w, args.first_seed + i, args.trace)
            runs.append(result["metrics"])
            print(f"{w} seed {args.first_seed + i}: {elapsed:.1f} s", file=sys.stderr)
        report[w] = {}
        for name in runs[0]:
            s = summarize([r[name]["value"] for r in runs])
            s["unit"] = runs[0][name]["unit"]
            report[w][name] = s
            flag = ""
            if name in gated and name != "setup_s" and s["spread"] >= gated[name]["bound"] / 3:
                flag = f"  <-- spread not below bound/3 = {gated[name]['bound'] / 3:.4f}"
            print(f"{w:26} {name:24} median {s['median']:.6g} {s['unit']:5} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
        for w in names:
            for name, m in gated.items():
                a, b = before[w][name]["median"], report[w][name]["median"]
                moved = (b - a) / a
                worse = moved if m["better"] == "lower" else -moved
                flag = f"  <-- worse by more than the bound {m['bound']}" if worse > m["bound"] else ""
                print(f"{w:26} {name:24} median moved {moved:+.4f} from {a:.6g} to {b:.6g}{flag}")


if __name__ == "__main__":
    main()
