#!/usr/bin/env python3
"""Gate a flat-TICK scaling sweep: p99 may grow at most N log N.

    check_tick_scaling.py BENCH_flat_tick.json

Reads the records bench_flat_tick writes (``agents`` and
``tick_p99_ns`` per population, and ``cohorts``, the number of COHORT
labels, 0 when absent). Each series of equal ``cohorts`` is gated
apart: sorted by population, every step from N to 2N must keep the
TICK p99 ratio within the
N log N ratio, (2N log 2N) / (N log N), times (1 + SLACK). SLACK is
fixed here, before any run, at 0.5: wide enough for a shared CI
runner's jitter and far below what a quadratic step costs. At
N = 1024 the N log N bound with slack is 3.3x per doubling, and an
N^2 term makes it 4x. Exits 1 on a violation or a malformed file.
"""

import argparse
import json
import math
import pathlib
import sys

SLACK = 0.5


def nlogn_ratio(small, big):
    """(big log big) / (small log small), the allowed growth."""
    return (big * math.log2(big)) / (small * math.log2(small))


def violations(records, slack):
    """Human-readable failures of one sweep; empty when it passes."""
    series = {}
    for record in records:
        series.setdefault(record.get("cohorts", 0), []).append(
            (record["agents"], record["tick_p99_ns"]))
    if not series:
        return ["need at least two populations to gate scaling"]
    errors = []
    for cohorts, points in sorted(series.items()):
        print(f"series cohorts={cohorts}:")
        errors += [f"cohorts={cohorts}: {error}"
                   for error in series_violations(sorted(points), slack)]
    return errors


def series_violations(points, slack):
    """Failures of one series of (agents, p99) points, sorted."""
    if len(points) < 2:
        return ["need at least two populations to gate scaling"]
    errors = []
    for (small, p99_small), (big, p99_big) in zip(points, points[1:]):
        if big != 2 * small:
            errors.append(f"populations {small} -> {big} are not a "
                          "doubling")
            continue
        if small < 2 or p99_small <= 0:
            errors.append(f"N={small}: unusable p99 {p99_small}")
            continue
        measured = p99_big / p99_small
        allowed = nlogn_ratio(small, big) * (1 + slack)
        verdict = "ok" if measured <= allowed else "FAIL"
        print(f"N {small:>6} -> {big:>6}: p99 x{measured:.2f} "
              f"(allowed x{allowed:.2f}) {verdict}")
        if measured > allowed:
            errors.append(f"N={small}->{big}: TICK p99 grew "
                          f"x{measured:.2f}, more than N log N "
                          f"allows (x{allowed:.2f})")
    return errors


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", help="BENCH_flat_tick.json")
    args = parser.parse_args(argv)
    try:
        records = json.loads(pathlib.Path(args.bench).read_text())
        if not isinstance(records, list):
            records = [records]
        errors = violations(records, SLACK)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors = [f"{args.bench}: unreadable sweep ({exc})"]
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
