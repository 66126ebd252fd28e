#!/usr/bin/env python3
"""Self-check of the benchmark's output checks.

    python3 perfbench/selfcheck.py

For every workload, a short run must pass its output checks, and the same
run with --corrupt-reference (one reference digest flipped) must fail them:
print "correct": false, count the mismatches in "failed", and exit non-zero.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "2", "--trace", "0", *extra],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    ok = True
    for workload in WORKLOADS:
        code, result = run(workload)
        good = (code == 0 and result is not None and result["correct"]
                and not result["failed"])
        code_bad, bad = run(workload, "--corrupt-reference")
        caught = (code_bad != 0 and bad is not None and not bad["correct"]
                  and bad["failed"] > 0)
        verdict = "fails as intended" if caught else "NOT CAUGHT"
        print(f"{workload:12s} reference run: {'pass' if good else 'FAIL'}  "
              f"wrong reference: {verdict}")
        ok = ok and good and caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
