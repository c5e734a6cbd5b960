#!/usr/bin/env python3
"""Run-to-run spread of lrb_bench reports.

    python3 bench/e2e/spread.py REPORT.json... [--vs REPORT.json...]

Each REPORT is a JSON file written by `lrb_bench --json` (run.py keeps one
per run under reports/ in its build directory). For every workload and
metric the script prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median. An end-to-end metric is flagged
when its spread exceeds 10% or its BENCHMARK.json bound.

With --vs, the reports after it form a second set: each end-to-end metric
then also shows how far the second set's median moved from the first's, and
is flagged when it moved the worse way by more than its bound.

Exit status is 1 if anything was flagged. Python 3 standard library only.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
MAX_SPREAD = 0.10


def collect(paths):
    """{workload: {section: {metric: [values]}}} over the given reports."""
    out = {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        for workload, result in report["workloads"].items():
            sections = out.setdefault(workload, {})
            for section in ("end_to_end", "reported", "per_layer"):
                for name, metric in result.get(section, {}).items():
                    if metric.get("value") is not None:
                        sections.setdefault(section, {}).setdefault(
                            name, []).append(metric["value"])
    return out


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("reports", nargs="+")
    parser.add_argument("--vs", nargs="+", default=[])
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    opts = parser.parse_args()

    with open(opts.spec) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    first, second = collect(opts.reports), collect(opts.vs)
    flagged = 0
    for workload in sorted(first):
        counts = [len(v) for v in first[workload].get("end_to_end", {}).values()]
        print("%s (%d runs)" % (workload, max(counts, default=0)))
        for section in ("end_to_end", "reported", "per_layer"):
            for name, values in sorted(first[workload].get(section, {}).items()):
                median, q1, q3, spread = summary(values)
                line = "  %-10s %-32s median %-12.6g Q1 %-12.6g Q3 %-12.6g " \
                       "spread %6.2f%%" % (section, name, median, q1, q3,
                                           100 * spread)
                notes = []
                entry = spec.get(name) if section == "end_to_end" else None
                if entry is not None:
                    limit = min(MAX_SPREAD, entry["bound"])
                    # setup_s is a few milliseconds of process start: its
                    # spread is shown, and only its median is gated (--vs).
                    if spread > limit and name != "setup_s":
                        notes.append("spread > %.0f%%" % (100 * limit))
                    other = second.get(workload, {}).get(section, {}).get(name)
                    if other:
                        moved = statistics.median(other) / median - 1.0
                        worse = moved if entry["better"] == "lower" else -moved
                        line += "  vs %+6.2f%%" % (100 * moved)
                        if worse > entry["bound"]:
                            notes.append("worse by more than its bound %.0f%%" %
                                         (100 * entry["bound"]))
                if notes:
                    flagged += 1
                    line += "  <-- " + "; ".join(notes)
                print(line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
