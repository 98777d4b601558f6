#!/usr/bin/env python3
"""Normalize google-benchmark JSON into standardized BENCH_*.json files.

Each benchmark in the input becomes one small file,
``BENCH_<sanitized name>.json``, holding exactly::

    {"name": ..., "wall_ns": ..., "iterations": ...}

so the perf trajectory can be tracked across commits without parsing
google-benchmark's full schema. ``wall_ns`` is real (wall-clock) time
per iteration, converted from whatever time_unit the run used.

Records produced elsewhere (ref_bomb, bench_socket.sh,
bench_pool_scale.sh) share the same schema, optionally extended with
``ops_per_sec``, ``p50_ns`` / ``p90_ns`` / ``p99_ns`` latency
quantiles, and — for pooled scale runs — ``agents``, ``pools``, and
TICK-only ``tick_p50_ns`` / ``tick_p99_ns``, and — for the TICK
harnesses (bench_flat_tick, bench_pooled_tick) — the per-phase
medians ``phase_<phase>_p50_ns``, and — for bench_pooled_tick — the
agent store's ``heap_bytes_per_agent``; a BENCH file may hold
one record or a JSON array of them. Strategy-proofness records
(ref_adversary, bench_strategy.sh) add ``liars``, ``rounds``,
``converged``, the ``gain_ratio`` family, ``utilization_loss`` (may
be negative: lying can *raise* reported welfare), and the cohort
margins.

``--median OUT`` folds several runs of one BENCH file (say, three
runs of bench_socket.sh) into OUT: per record name, every numeric
field becomes the median over the runs. With an even run count it is
the lower middle value, so each field is one a run measured and
integer fields stay integers.

Usage:
  export_bench_timings.py <benchmark_out.json>... [--out-dir DIR]
  export_bench_timings.py --check <BENCH_*.json>...
  export_bench_timings.py --median OUT <BENCH_*.json>...
"""

import argparse
import json
import pathlib
import re
import statistics
import sys

_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

#: Required fields of one BENCH record and their validators.
_REQUIRED = {
    "name": lambda v: isinstance(v, str) and v != "",
    "wall_ns": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool) and v >= 0,
    "iterations": lambda v: isinstance(v, int)
    and not isinstance(v, bool) and v >= 1,
}

#: Optional extensions (load generators add these).
_OPTIONAL = {
    "ops_per_sec": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool) and v >= 0,
    "p50_ns": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool) and v >= 0,
    "p90_ns": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool) and v >= 0,
    "p99_ns": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool) and v >= 0,
    "agents": lambda v: isinstance(v, int)
    and not isinstance(v, bool) and v >= 0,
    "pools": lambda v: isinstance(v, int)
    and not isinstance(v, bool) and v >= 0,
    "cohorts": lambda v: isinstance(v, int)
    and not isinstance(v, bool) and v >= 0,
    "tick_p50_ns": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool) and v >= 0,
    "tick_p99_ns": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool) and v >= 0,
    # Allocator bytes per preloaded agent (bench_pooled_tick).
    "heap_bytes_per_agent": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool) and v >= 0,
    # Flat TICK phase medians (bench_flat_tick, EpochResult::phases).
    **{
        f"phase_{phase}_p50_ns": lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool) and v >= 0
        for phase in ("allocate", "self_check", "si", "ef",
                      "hysteresis", "publish", "drift")
    },
    # Strategy-proofness sweep records (ref_adversary).
    "liars": lambda v: isinstance(v, int)
    and not isinstance(v, bool) and v >= 0,
    "rounds": lambda v: isinstance(v, int)
    and not isinstance(v, bool) and v >= 0,
    "converged": lambda v: v in (0, 1)
    and not isinstance(v, bool),
    "gain_ratio": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool) and v >= 0,
    "mean_gain_ratio": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool) and v >= 0,
    "report_deviation": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool) and v >= 0,
    "utilization_loss": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "honest_si_margin": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool) and v >= 0,
    "honest_ef_margin": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool) and v >= 0,
    "liar_si_margin": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool) and v >= 0,
}


def sanitize(name):
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")


def record_errors(record, where):
    """Schema violations in one BENCH record, as human-readable strings."""
    errors = []
    if not isinstance(record, dict):
        return [f"{where}: record is not a JSON object"]
    for key, valid in _REQUIRED.items():
        if key not in record:
            errors.append(f"{where}: missing required field '{key}'")
        elif not valid(record[key]):
            errors.append(
                f"{where}: field '{key}' has invalid value "
                f"{record[key]!r}")
    for key, valid in _OPTIONAL.items():
        if key in record and not valid(record[key]):
            errors.append(
                f"{where}: field '{key}' has invalid value "
                f"{record[key]!r}")
    known = set(_REQUIRED) | set(_OPTIONAL)
    for key in record:
        if key not in known:
            errors.append(f"{where}: unknown field '{key}'")
    return errors


def check(paths):
    """Validate BENCH files; a list of error strings (empty when clean)."""
    errors = []
    for path in paths:
        try:
            doc = json.loads(pathlib.Path(path).read_text())
        except (OSError, ValueError) as exc:
            errors.append(f"{path}: unreadable or not JSON ({exc})")
            continue
        records = doc if isinstance(doc, list) else [doc]
        if not records:
            errors.append(f"{path}: empty record array")
        for index, record in enumerate(records):
            where = f"{path}[{index}]" if isinstance(doc, list) else str(path)
            errors.extend(record_errors(record, where))
    return errors


def median(paths):
    """Per-name, per-field median records over the runs in paths."""
    runs = []
    for path in paths:
        doc = json.loads(pathlib.Path(path).read_text())
        runs.append(doc if isinstance(doc, list) else [doc])
    names = [[record["name"] for record in run] for run in runs]
    if any(run_names != names[0] for run_names in names):
        raise ValueError("runs disagree on their record names: "
                         f"{names}")
    merged = []
    for index, first in enumerate(runs[0]):
        record = {}
        for key, value in first.items():
            values = [run[index][key] for run in runs]
            numeric = all(isinstance(v, (int, float))
                          and not isinstance(v, bool) for v in values)
            record[key] = (statistics.median_low(values) if numeric
                           else value)
        merged.append(record)
    return merged


def export(path, out_dir):
    doc = json.loads(pathlib.Path(path).read_text())
    written = []
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        scale = _TO_NS[bench.get("time_unit", "ns")]
        record = {
            "name": bench["name"],
            "wall_ns": bench["real_time"] * scale,
            "iterations": bench["iterations"],
        }
        out = out_dir / f"BENCH_{sanitize(bench['name'])}.json"
        out.write_text(json.dumps(record, indent=2) + "\n")
        written.append(out)
    return written


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("inputs", nargs="+",
                        help="google-benchmark --benchmark_out files, "
                             "or BENCH_*.json files with --check")
    parser.add_argument("--out-dir", default=".",
                        help="directory for BENCH_*.json (default: .)")
    parser.add_argument("--check", action="store_true",
                        help="validate BENCH_*.json files against the "
                             "schema instead of exporting")
    parser.add_argument("--median", metavar="OUT",
                        help="write the per-field median of the input "
                             "BENCH runs to OUT instead of exporting")
    args = parser.parse_args(argv)

    if args.median:
        try:
            records = median(args.inputs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            print(f"error: cannot take the median: {exc}",
                  file=sys.stderr)
            return 1
        pathlib.Path(args.median).write_text(
            json.dumps(records, indent=2) + "\n")
        print(f"{args.median}: median of {len(args.inputs)} run(s)")
        return 0

    if args.check:
        errors = check(args.inputs)
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        if not errors:
            print(f"{len(args.inputs)} file(s) conform to the BENCH "
                  "schema")
        return 1 if errors else 0

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for path in args.inputs:
        written.extend(export(path, out_dir))
    if not written:
        print("error: no benchmarks found in inputs", file=sys.stderr)
        return 1
    for out in written:
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
