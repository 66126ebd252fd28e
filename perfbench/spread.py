#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload imdb_fd --seeds 1-10 --trace 0
    python3 perfbench/spread.py --workload lake_churn --seeds 1-3 --trace 1 \
        --baseline perfbench/baseline.json

For every metric it prints the median over the runs, the quartiles
(statistics.quantiles(values, n=4)) and the spread, (Q3 - Q1) / median —
the figure BENCHMARK.json's bounds are compared against. With --trace 1 it
also prints each layer's median share of traced self time. --baseline
stores the summary under baseline[workload]["trace<t>"] in that JSON file.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--baseline", help="JSON file to record the summary in")
    args = parser.parse_args()

    values, shares, info = {}, {}, {}
    runs = 0
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", args.trace], capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: FAILED (exit {proc.returncode})\n"
                  f"{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        runs += 1
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in lines:
            parts = line.split()
            if len(parts) >= 3 and parts[0] == "info":
                target = shares if parts[1].endswith(".self_share") else info
                target.setdefault(parts[1], []).append(float(parts[2]))

    summary = {"runs": runs, "seconds": args.seconds, "metrics": {}}
    print(f"\n{'metric':34s} {'median':>14s} {'Q1':>12s} {'Q3':>12s} spread")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (
            vals[0], None, vals[0])
        spread = (q3 - q1) / med if med else 0.0
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": spread}
        print(f"{name:34s} {med:14.6g} {q1:12.6g} {q3:12.6g} {spread:.4f}")
    for title, table in (("self-time share (%)", shares), ("info", info)):
        if table:
            summary[title.split()[0]] = {k: statistics.median(v)
                                         for k, v in table.items()}
            print(f"\n{title}, median over runs:")
            for name, vals in table.items():
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(
                    vals) > 1 else (vals[0], None, vals[0])
                print(f"  {name:34s} {med:12.6g}"
                      f"  (min {min(vals):.6g}, max {max(vals):.6g}, "
                      f"spread {(q3 - q1) / med if med else 0.0:.4f})")

    if args.baseline:
        path = Path(args.baseline)
        data = json.loads(path.read_text()) if path.exists() else {}
        data.setdefault(args.workload, {})[f"trace{args.trace}"] = summary
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
