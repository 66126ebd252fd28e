#!/usr/bin/env python3
"""Tests of compare_bench.py's gate on synthetic artifacts.

Standard library only: each case writes a baseline and a candidate artifact
to a temporary directory, runs compare_bench.py on them and checks its exit
status and the machine-speed factor it reports.

    python3 bench/compare_bench_test.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

COMPARE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "compare_bench.py")

# (name, threads) of a thread sweep shaped like BENCH_fd_skew.json: two
# serial rows, then thread-scaled ones.
SWEEP = [("giant_serial", 1), ("giant_t1", 1), ("giant_t2", 2),
         ("giant_t4", 4), ("giant_t8", 8)]
BASE_P50_MS = 1000.0


def record(name, threads, p50_ms, output_tuples=5263):
    return {"name": name, "threads": threads, "p50_ms": p50_ms,
            "output_tuples": output_tuples}


def artifact(records, cores=None):
    """The current artifact shape with a hardware block granting `cores`,
    or the legacy bare array when `cores` is None."""
    if cores is None:
        return records
    return {"hardware": {"hardware_concurrency": cores,
                         "cores_granted": cores},
            "records": records}


def baseline_sweep():
    return [record(name, threads, BASE_P50_MS) for name, threads in SWEEP]


def scaled_sweep(serial_ratio, scaled_ratio):
    """The sweep with serial-equivalent rows (threads == 1) at
    serial_ratio x and thread-scaled rows at scaled_ratio x the baseline."""
    return [record(name, threads,
                   BASE_P50_MS * (serial_ratio if threads == 1
                                  else scaled_ratio))
            for name, threads in SWEEP]


class CompareBenchTest(unittest.TestCase):

    def compare(self, baseline, candidate):
        """Runs compare_bench.py; returns (exit status, speed factor,
        stdout)."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for label, doc in (("baseline", baseline),
                               ("candidate", candidate)):
                path = os.path.join(tmp, label + ".json")
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(doc, f)
                paths.append(path)
            proc = subprocess.run(
                [sys.executable, COMPARE, "--baseline", paths[0],
                 "--candidate", paths[1]],
                capture_output=True, text=True, check=False)
        match = re.search(r"machine-speed factor .*: ([0-9.]+)",
                          proc.stdout)
        self.assertIsNotNone(match, proc.stdout)
        return proc.returncode, float(match.group(1)), proc.stdout

    def test_serial_rows_faster_on_more_cores_pass(self):
        # (a) A 1-core baseline against a 4-core candidate whose serial rows
        # run at 0.5x and whose t2-t8 rows scale to 0.12x. Taken over all
        # records the factor would be 0.12, and the serial rows, twice as
        # fast as their baseline, would be flagged. Only the threads == 1
        # rows ran at equal parallelism, so the factor is theirs.
        status, speed, out = self.compare(
            artifact(baseline_sweep(), cores=1),
            artifact(scaled_sweep(0.5, 0.12), cores=4))
        self.assertEqual(status, 0, out)
        self.assertAlmostEqual(speed, 0.5, places=3)

    def test_one_core_serial_slowdown_fails(self):
        # (b) Two 1-core artifacts: every record qualifies, so one t1 row
        # 1.5x slower than the rest is flagged, as by a factor over all
        # records.
        candidate = baseline_sweep()
        candidate[1]["p50_ms"] *= 1.5
        status, speed, out = self.compare(artifact(baseline_sweep(), cores=1),
                                          artifact(candidate, cores=1))
        self.assertEqual(status, 1, out)
        self.assertAlmostEqual(speed, 1.0, places=3)
        self.assertIn("over 5 records", out)
        self.assertIn("REGRESSION", out)

    def test_work_counter_change_fails(self):
        # (c) Timings identical, one EXACT_FIELDS value differs.
        candidate = baseline_sweep()
        candidate[2]["output_tuples"] += 1
        status, _, out = self.compare(artifact(baseline_sweep(), cores=4),
                                      artifact(candidate, cores=4))
        self.assertEqual(status, 1, out)
        self.assertIn("work counters: 1 change(s)", out)

    def test_without_hardware_blocks_uses_all_records(self):
        # (d) Case (b) in the legacy shape: with no hardware block the
        # factor falls back to all shared records and the slowdown is still
        # flagged.
        candidate = baseline_sweep()
        candidate[1]["p50_ms"] *= 1.5
        status, speed, out = self.compare(artifact(baseline_sweep()),
                                          artifact(candidate))
        self.assertEqual(status, 1, out)
        self.assertAlmostEqual(speed, 1.0, places=3)
        self.assertIn("over 5 records; all shared records", out)


if __name__ == "__main__":
    unittest.main()
