#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <imdb_fd|fuzzy_lake|lake_churn> \
        --seed <n> --seconds <s> --trace <0|1> [--corrupt-reference]

Builds the perfbench program and the lakefuzz library from source into
.bench_build/perfbench (incremental after the first run), then runs one
workload. Generated inputs live under .bench_build/perfbench-work and are
removed when the run ends; result and span files go to
.bench_build/perfbench-results. The last line of stdout is the JSON result.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175


def build() -> bool:
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                sys.stderr.write(Path(log_path).read_text()[-4000:])
                sys.stderr.write("perfbench: build failed\n")
                return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-check: a wrong reference must fail the run")
    args = parser.parse_args()

    if not build():
        return 1
    work = ROOT / ".bench_build" / "perfbench-work" / (
        f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--out-dir", str(ROOT / ".bench_build" / "perfbench-results"),
           "--work-dir", str(work)]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
