#!/usr/bin/env python3
"""Compare a freshly produced --json_out benchmark artifact against the
committed baseline under bench/results/ and fail on p50 regressions or on
any change in deterministic work.

Records are matched by (name, threads). Records present on only one side are
reported but never fail the run (benchmarks gain and retire configurations
across PRs).

Baselines are committed from whatever machine produced them, so absolute
wall-clock comparison would gate on runner speed, not code. By default the
gate therefore self-normalizes: it computes the median candidate/baseline
p50 ratio across shared records (the machine-speed factor) and flags a
record when it is slower than that median by more than the threshold:

    cand_p50 > base_p50 * median_ratio * (1 + threshold) + slack_ms

The factor is taken only from records that ran at the same effective
parallelism on both machines, min(threads, cores_granted) under each
artifact's hardware block. A thread-scaled record measures a different
thing on a machine with more cores: its ratio mixes runner speed with
parallel speedup, and against a 1-core baseline the t2-t8 rows of a
4-core run would pull the factor far below the serial rows' and flag
those serial rows although they ran faster than their baseline. When
both artifacts report the same cores_granted every record qualifies, so
the factor is the median over all shared records. When either hardware
block (or its cores_granted) is missing, or no record qualifies, the
factor falls back to all shared records.

A code change that slows one benchmark while the rest hold moves that
record's ratio away from the median and trips the gate on any machine; a
uniformly slower runner moves every ratio equally and trips nothing. The
deliberate blind spot — a change that slows *all* benchmarks by the same
factor looks like a slow machine — can be closed with --no-normalize when
baseline and candidate come from the same machine. The additive slack keeps
sub-millisecond rows (where scheduler noise easily exceeds 25%) from
producing false alarms.

Deterministic work counters (EXACT_FIELDS: search nodes, output tuples,
cost evaluations, cache traffic, catalog bytes, ...) are gated exactly: a
record present on both sides fails when any of these fields, present in
both, differs at all. A change in work is a change in behaviour, not noise,
so a PR that changes work on purpose re-baselines. Counters that depend on
scheduling (pool_tasks, spans_per_request) are deliberately not in the
list, and neither is intra_tasks: it is deterministic, but it counts how
the work was split, not the work.

Artifacts come in two shapes: the legacy bare JSON array of records, and
the current object {"hardware": {...}, "records": [...]} whose hardware
block records what the producing machine could actually run
(hardware_concurrency and, on Linux, the affinity-mask core count actually
granted to the process). Both load transparently.

--speedup-gate NAME:MIN (repeatable) additionally requires the candidate
record NAME (any thread count) to carry speedup_vs_serial >= MIN. The gate
is hardware-aware rather than silently green: when the candidate's
hardware block shows fewer granted cores than the record's thread count,
the gate cannot be demonstrated on that machine, so it prints SKIPPED with
the recorded core counts and does not fail; when the artifact predates the
hardware block, the gate is also skipped, flagged as such. It only fails
when the machine demonstrably had the cores and the speedup still missed.

Exit status: 0 = no regressions, 1 = at least one regression, work-counter
change, or failed speedup gate, 2 = usage or I/O error.
"""

import argparse
import contextlib
import json
import os
import signal
import statistics
import sys

# Die quietly when stdout is a closed pipe (e.g. piped through `head`).
with contextlib.suppress(AttributeError, ValueError):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

# Record fields that count deterministic work; see the module docstring.
EXACT_FIELDS = (
    "search_nodes", "output_tuples", "rows", "cost_evaluations",
    "posting_lists", "distinct_values", "embedding_cache_hits",
    "embedding_cache_misses", "tables", "indexed_columns", "tables_written",
    "bytes_written", "columns_resketched", "resketched",
)


def load_artifact(path):
    """Returns (records dict keyed by (name, threads), hardware dict or None).

    Accepts both artifact shapes: the legacy bare array (hardware None) and
    the current {"hardware": ..., "records": [...]} object.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot load {path}: {e}", file=sys.stderr)
        sys.exit(2)
    hardware = None
    if isinstance(doc, dict):
        hardware = doc.get("hardware")
        records = doc.get("records")
        if not isinstance(records, list):
            print(f"error: {path}: object artifact lacks a 'records' array",
                  file=sys.stderr)
            sys.exit(2)
    elif isinstance(doc, list):
        records = doc
    else:
        print(f"error: {path}: expected a JSON array or object",
              file=sys.stderr)
        sys.exit(2)
    out = {}
    for rec in records:
        key = (rec.get("name", "?"), rec.get("threads", 1))
        out[key] = rec
    return out, hardware


def work_changes(baseline, candidate):
    """Returns (key, field, base, cand) for every EXACT_FIELDS mismatch
    between records present on both sides."""
    changes = []
    for key in sorted(baseline):
        if key not in candidate:
            continue
        for field in EXACT_FIELDS:
            if field not in baseline[key] or field not in candidate[key]:
                continue
            base = float(baseline[key][field])
            cand = float(candidate[key][field])
            if base != cand:
                changes.append((key, field, base, cand))
    return changes


def speed_factor_keys(shared, base_hw, cand_hw):
    """Returns (keys, note): the shared record keys the machine-speed factor
    is taken from, and how they were chosen (see the module docstring)."""
    base_cores = None if base_hw is None else base_hw.get("cores_granted")
    cand_cores = None if cand_hw is None else cand_hw.get("cores_granted")
    if base_cores is None or cand_cores is None:
        return shared, "all shared records: a hardware block is missing"
    same = [key for key in shared
            if min(int(key[1]), base_cores) == min(int(key[1]), cand_cores)]
    if not same:
        return shared, ("all shared records: none ran at equal effective "
                        "parallelism")
    return same, ("records at equal effective parallelism "
                  f"min(threads, cores): {base_cores} vs {cand_cores} "
                  "core(s) granted")


def check_speedup_gates(gates, candidate, hardware):
    """Returns the number of FAILED gates (skips are reported, not failed)."""
    failures = 0
    for spec in gates:
        name, _, min_str = spec.partition(":")
        try:
            min_speedup = float(min_str)
        except ValueError:
            print(f"error: --speedup-gate {spec!r}: want NAME:MIN",
                  file=sys.stderr)
            sys.exit(2)
        rows = [(threads, rec) for (n, threads), rec in candidate.items()
                if n == name]
        if not rows:
            print(f"speedup gate {name}: SKIPPED (record absent from "
                  f"candidate)")
            continue
        for threads, rec in sorted(rows):
            speedup = rec.get("speedup_vs_serial")
            if speedup is None:
                print(f"speedup gate {name} (threads={threads}): SKIPPED "
                      f"(record carries no speedup_vs_serial)")
                continue
            cores = None if hardware is None else hardware.get("cores_granted")
            if cores is None:
                print(f"speedup gate {name} (threads={threads}): SKIPPED "
                      f"(artifact has no hardware block; cannot tell "
                      f"starvation from regression)")
                continue
            if cores < threads:
                print(f"speedup gate {name} (threads={threads}): SKIPPED "
                      f"(machine granted {cores} core(s) < {threads} "
                      f"threads; speedup {speedup:.2f}x recorded, not "
                      f"gated)")
                continue
            if speedup >= min_speedup:
                print(f"speedup gate {name} (threads={threads}): OK "
                      f"({speedup:.2f}x >= {min_speedup:.2f}x on "
                      f"{cores} cores)")
            else:
                print(f"speedup gate {name} (threads={threads}): FAILED "
                      f"({speedup:.2f}x < {min_speedup:.2f}x despite "
                      f"{cores} granted cores)", file=sys.stderr)
                failures += 1
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True,
                        help="committed artifact (bench/results/*.json)")
    parser.add_argument("--candidate", required=True,
                        help="freshly produced --json_out artifact")
    parser.add_argument("--threshold", type=float,
                        default=float(os.environ.get(
                            "BENCH_REGRESSION_THRESHOLD", "0.25")),
                        help="relative p50 regression tolerance "
                             "(default 0.25 = +25%%)")
    parser.add_argument("--slack-ms", type=float,
                        default=float(os.environ.get(
                            "BENCH_REGRESSION_SLACK_MS", "2.0")),
                        help="additive tolerance for sub-millisecond rows")
    parser.add_argument("--no-normalize", action="store_true",
                        help="compare absolute p50 (same-machine baselines)")
    parser.add_argument("--speedup-gate", action="append", default=[],
                        metavar="NAME:MIN",
                        help="require candidate record NAME to carry "
                             "speedup_vs_serial >= MIN; skipped (with a "
                             "note) when the recording machine was granted "
                             "fewer cores than the record's thread count")
    args = parser.parse_args()

    baseline, base_hw = load_artifact(args.baseline)
    candidate, cand_hw = load_artifact(args.candidate)
    for label, hw in (("baseline", base_hw), ("candidate", cand_hw)):
        if hw is None:
            print(f"note: {label} artifact has no hardware block "
                  f"(pre-hardware format)")
        else:
            print(f"{label} hardware: {hw.get('cores_granted', '?')} core(s) "
                  f"granted of {hw.get('hardware_concurrency', '?')} "
                  f"advertised")

    shared = [key for key in baseline if key in candidate]
    factor_keys, basis = speed_factor_keys(shared, base_hw, cand_hw)
    ratios = []
    for key in factor_keys:
        base_p50 = float(baseline[key].get("p50_ms", 0.0))
        cand_p50 = float(candidate[key].get("p50_ms", 0.0))
        if base_p50 > 0:
            ratios.append(cand_p50 / base_p50)
    speed = 1.0
    if not args.no_normalize and ratios:
        speed = statistics.median(ratios)
    print(f"machine-speed factor (median cand/base p50 over "
          f"{len(ratios)} records; {basis}): {speed:.3f}"
          + ("  [normalization disabled]" if args.no_normalize else ""))

    regressions = []
    improvements = 0
    width = max([len(name) for name, _ in baseline] + [10])
    print(f"{'record':<{width}}  {'thr':>3}  {'base p50':>10}  "
          f"{'cand p50':>10}  {'ratio':>6}")
    for key in sorted(baseline):
        if key not in candidate:
            print(f"{key[0]:<{width}}  {key[1]:>3}  "
                  f"{baseline[key].get('p50_ms', 0.0):>10.3f}  "
                  f"{'absent':>10}  {'-':>6}")
            continue
        base_p50 = float(baseline[key].get("p50_ms", 0.0))
        cand_p50 = float(candidate[key].get("p50_ms", 0.0))
        ratio = cand_p50 / base_p50 if base_p50 > 0 else float("inf")
        limit = base_p50 * speed * (1.0 + args.threshold) + args.slack_ms
        status = ""
        if cand_p50 > limit:
            regressions.append((key, base_p50, cand_p50))
            status = "  REGRESSION"
        elif cand_p50 < base_p50:
            improvements += 1
        print(f"{key[0]:<{width}}  {key[1]:>3}  {base_p50:>10.3f}  "
              f"{cand_p50:>10.3f}  {ratio:>6.2f}{status}")
    for key in sorted(set(candidate) - set(baseline)):
        print(f"{key[0]:<{width}}  {key[1]:>3}  {'absent':>10}  "
              f"{candidate[key].get('p50_ms', 0.0):>10.3f}  {'-':>6}  (new)")

    print(f"\ncompared {len(shared)} record(s): {improvements} faster, "
          f"{len(regressions)} regression(s) beyond "
          f"+{args.threshold * 100:.0f}% of the speed-adjusted baseline "
          f"(+{args.slack_ms:g} ms slack)")
    changes = work_changes(baseline, candidate)
    print(f"work counters: {len(changes)} change(s) across "
          f"{len(EXACT_FIELDS)} exactly gated fields")
    for (name, threads), field, base, cand in changes:
        print(f"  {name} (threads={threads}): {field} {base:g} -> {cand:g}",
              file=sys.stderr)
    gate_failures = 0
    if args.speedup_gate:
        gate_failures = check_speedup_gates(args.speedup_gate, candidate,
                                            cand_hw)
    if changes:
        gate_failures += 1
    if regressions:
        for (name, threads), base_p50, cand_p50 in regressions:
            print(f"  {name} (threads={threads}): "
                  f"{base_p50:.3f} ms -> {cand_p50:.3f} ms "
                  f"(speed-adjusted limit "
                  f"{base_p50 * speed * (1 + args.threshold):.3f} ms)",
                  file=sys.stderr)
        return 1
    return 1 if gate_failures else 0


if __name__ == "__main__":
    sys.exit(main())
