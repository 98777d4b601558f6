#!/usr/bin/env python3
"""Gate a bench run against a committed baseline.

Compares BENCH-schema records (see export_bench_timings.py) by name:
a record regresses when its throughput (``ops_per_sec``, or the
inverse of ``wall_ns`` when absent) falls more than ``--tolerance``
below the baseline's. Also enforces architecture-level speedup
claims: ``--min-speedup SLOW:FAST:X`` fails unless the record named
FAST delivers at least X times the throughput of the record named
SLOW, both read from the current file. ``--max-rise FIELD:X`` holds a
lower-is-better field (say, ``heap_bytes_per_agent``) to at most X
above the baseline's value, in every baseline record that has it.

Exit status: 0 clean, 1 on any regression or unmet speedup, 2 on
malformed inputs. Baselines move with intentional changes: regenerate
the committed BENCH files in the same PR and note why (CI documents
the override label for drive-by regressions).

Usage:
  check_bench_regression.py --baseline OLD.json --current NEW.json
      [--tolerance 0.25] [--min-speedup slow_name:fast_name:2.0]...
      [--max-rise field:0.10]...
"""

import argparse
import json
import pathlib
import sys


def load_records(path):
    doc = json.loads(pathlib.Path(path).read_text())
    records = doc if isinstance(doc, list) else [doc]
    by_name = {}
    for record in records:
        by_name[record["name"]] = record
    return by_name


def throughput(record):
    """Ops/sec for comparison; derived from wall_ns when absent."""
    if "ops_per_sec" in record:
        return float(record["ops_per_sec"])
    wall = float(record["wall_ns"])
    if wall <= 0:
        raise ValueError(f"record '{record['name']}' has wall_ns "
                         f"{wall}; cannot derive throughput")
    return 1e9 / wall


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH file to compare against")
    parser.add_argument("--current", required=True,
                        help="freshly generated BENCH file")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional throughput drop "
                             "(default: 0.25)")
    parser.add_argument("--min-speedup", action="append", default=[],
                        metavar="SLOW:FAST:X",
                        help="require current[FAST] >= X * "
                             "current[SLOW] in throughput")
    parser.add_argument("--max-rise", action="append", default=[],
                        metavar="FIELD:X",
                        help="require current FIELD <= (1 + X) * "
                             "baseline FIELD, lower being better")
    args = parser.parse_args(argv)

    try:
        baseline = load_records(args.baseline)
        current = load_records(args.current)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: unreadable bench file: {exc}", file=sys.stderr)
        return 2

    failures = []
    for name, old in sorted(baseline.items()):
        new = current.get(name)
        if new is None:
            failures.append(f"'{name}' present in baseline but "
                            "missing from current run")
            continue
        old_tput = throughput(old)
        new_tput = throughput(new)
        floor = old_tput * (1.0 - args.tolerance)
        verdict = "ok" if new_tput >= floor else "REGRESSION"
        print(f"{name}: baseline {old_tput:.0f} ops/s, current "
              f"{new_tput:.0f} ops/s "
              f"({new_tput / old_tput - 1.0:+.1%} vs baseline) "
              f"[{verdict}]")
        if new_tput < floor:
            failures.append(
                f"'{name}' dropped to {new_tput:.0f} ops/s, below "
                f"the {args.tolerance:.0%}-tolerance floor of "
                f"{floor:.0f}")

    for spec in args.min_speedup:
        try:
            slow_name, fast_name, factor_text = spec.rsplit(":", 2)
            factor = float(factor_text)
            slow = throughput(current[slow_name])
            fast = throughput(current[fast_name])
        except (ValueError, KeyError) as exc:
            print(f"error: bad --min-speedup '{spec}': {exc}",
                  file=sys.stderr)
            return 2
        achieved = fast / slow if slow > 0 else float("inf")
        verdict = "ok" if achieved >= factor else "UNMET"
        print(f"speedup {fast_name} vs {slow_name}: {achieved:.2f}x "
              f"(need {factor:.2f}x) [{verdict}]")
        if achieved < factor:
            failures.append(
                f"'{fast_name}' is only {achieved:.2f}x "
                f"'{slow_name}' (need {factor:.2f}x)")

    for spec in args.max_rise:
        try:
            field, rise_text = spec.rsplit(":", 1)
            rise = float(rise_text)
        except ValueError as exc:
            print(f"error: bad --max-rise '{spec}': {exc}",
                  file=sys.stderr)
            return 2
        for name, old in sorted(baseline.items()):
            new = current.get(name)
            if field not in old or new is None:
                continue
            if field not in new:
                failures.append(f"'{name}' lacks '{field}'")
                continue
            ceiling = float(old[field]) * (1.0 + rise)
            verdict = "ok" if new[field] <= ceiling else "REGRESSION"
            print(f"{name}: {field} baseline {old[field]}, current "
                  f"{new[field]} (ceiling {ceiling:.6g}) [{verdict}]")
            if new[field] > ceiling:
                failures.append(
                    f"'{name}' {field} rose to {new[field]}, above "
                    f"{rise:.0%} over the baseline's {old[field]}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
