#!/usr/bin/env python3
"""Unit tests for export_bench_timings.py: the google-benchmark export
path, the BENCH schema validator (--check) and the run median
(--median)."""

import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import export_bench_timings as ebt


def write(directory, name, payload):
    path = pathlib.Path(directory) / name
    path.write_text(json.dumps(payload))
    return path


GOOD = {"name": "socket_text", "wall_ns": 51234.5,
        "iterations": 8000}
GOOD_FULL = {"name": "socket_binary", "wall_ns": 9876.0,
             "iterations": 64000, "ops_per_sec": 101234.2,
             "p50_ns": 8000, "p90_ns": 15000, "p99_ns": 40000}
GOOD_POOLED = {**GOOD_FULL, "name": "pool_scale_P100000",
               "agents": 100000, "pools": 64,
               "tick_p50_ns": 120000, "tick_p99_ns": 900000}
GOOD_FLAT = {"name": "flat_tick_N1024", "wall_ns": 245000,
             "iterations": 1000, "agents": 1024,
             "tick_p50_ns": 255000, "tick_p99_ns": 344000,
             "phase_allocate_p50_ns": 60700,
             "phase_self_check_p50_ns": 50, "phase_si_p50_ns": 9000,
             "phase_ef_p50_ns": 108100,
             "phase_hysteresis_p50_ns": 19600,
             "phase_publish_p50_ns": 28900,
             "phase_drift_p50_ns": 20000}
GOOD_STRATEGY = {"name": "strategy/n64_k1", "wall_ns": 8,
                 "iterations": 500, "agents": 64, "liars": 1,
                 "rounds": 7, "converged": 1,
                 "gain_ratio": 1.0013, "mean_gain_ratio": 1.0013,
                 "report_deviation": 0.021,
                 "utilization_loss": -8.5e-05,
                 "honest_si_margin": 1.002,
                 "honest_ef_margin": 1.0003,
                 "liar_si_margin": 1.125}


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def test_minimal_and_extended_records_pass(self):
        path = write(self.dir.name, "BENCH_a.json", GOOD)
        full = write(self.dir.name, "BENCH_b.json", GOOD_FULL)
        pooled = write(self.dir.name, "BENCH_p.json", GOOD_POOLED)
        strategy = write(self.dir.name, "BENCH_s.json",
                         GOOD_STRATEGY)
        flat = write(self.dir.name, "BENCH_f.json", GOOD_FLAT)
        self.assertEqual(
            ebt.check([path, full, pooled, strategy, flat]), [])

    def test_array_of_records_passes(self):
        path = write(self.dir.name, "BENCH_arr.json",
                     [GOOD, GOOD_FULL])
        self.assertEqual(ebt.check([path]), [])

    def test_missing_required_field_fails(self):
        for field in ("name", "wall_ns", "iterations"):
            record = dict(GOOD)
            del record[field]
            path = write(self.dir.name, "BENCH_m.json", record)
            errors = ebt.check([path])
            self.assertEqual(len(errors), 1, errors)
            self.assertIn(field, errors[0])

    def test_wrong_types_fail(self):
        cases = [
            {**GOOD, "name": 7},
            {**GOOD, "wall_ns": "fast"},
            {**GOOD, "wall_ns": -1},
            {**GOOD, "iterations": 0},
            {**GOOD, "iterations": 2.5},
            {**GOOD, "iterations": True},
            {**GOOD, "p99_ns": "slow"},
            {**GOOD, "agents": 1.5},
            {**GOOD, "pools": -1},
            {**GOOD, "tick_p99_ns": "slow"},
            {**GOOD_STRATEGY, "converged": 2},
            {**GOOD_STRATEGY, "converged": True},
            {**GOOD_STRATEGY, "gain_ratio": -0.5},
            {**GOOD_STRATEGY, "rounds": 1.5},
            {**GOOD_STRATEGY, "liars": -1},
            {**GOOD_STRATEGY, "utilization_loss": "cheap"},
            {**GOOD_STRATEGY, "honest_si_margin": -1},
            {**GOOD_FLAT, "phase_ef_p50_ns": -1},
            {**GOOD_FLAT, "phase_si_p50_ns": "fast"},
        ]
        for record in cases:
            path = write(self.dir.name, "BENCH_t.json", record)
            self.assertNotEqual(ebt.check([path]), [], record)

    def test_unknown_field_fails(self):
        path = write(self.dir.name, "BENCH_u.json",
                     {**GOOD, "surprise": 1})
        errors = ebt.check([path])
        self.assertEqual(len(errors), 1)
        self.assertIn("surprise", errors[0])
        path = write(self.dir.name, "BENCH_u.json",
                     {**GOOD_FLAT, "phase_sort_p50_ns": 1})
        errors = ebt.check([path])
        self.assertEqual(len(errors), 1)
        self.assertIn("phase_sort_p50_ns", errors[0])

    def test_non_json_and_empty_array_fail(self):
        garbled = pathlib.Path(self.dir.name) / "BENCH_g.json"
        garbled.write_text("{not json")
        empty = write(self.dir.name, "BENCH_e.json", [])
        self.assertEqual(len(ebt.check([garbled])), 1)
        self.assertEqual(len(ebt.check([empty])), 1)

    def test_array_errors_carry_index(self):
        path = write(self.dir.name, "BENCH_i.json",
                     [GOOD, {"name": "x"}])
        errors = ebt.check([path])
        self.assertTrue(all("[1]" in error for error in errors),
                        errors)

    def test_main_exit_codes(self):
        good = write(self.dir.name, "BENCH_ok.json", GOOD)
        bad = write(self.dir.name, "BENCH_bad.json", {"name": "x"})
        self.assertEqual(ebt.main(["--check", str(good)]), 0)
        self.assertEqual(ebt.main(["--check", str(good), str(bad)]), 1)


class MedianTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def runs(self, *throughputs):
        return [write(self.dir.name, f"run{k}.json",
                      [{**GOOD_FULL, "ops_per_sec": tput,
                        "iterations": 64000 + k}, GOOD])
                for k, tput in enumerate(throughputs)]

    def test_takes_each_fields_median_by_name(self):
        merged = ebt.median(self.runs(45600.0, 66500.0, 57900.0))
        self.assertEqual([r["name"] for r in merged],
                         ["socket_binary", "socket_text"])
        self.assertEqual(merged[0]["ops_per_sec"], 57900.0)
        self.assertEqual(merged[0]["iterations"], 64001)
        self.assertEqual(merged[1], GOOD)

    def test_even_count_keeps_a_measured_integer(self):
        merged = ebt.median(self.runs(1.0, 4.0))
        self.assertEqual(merged[0]["ops_per_sec"], 1.0)
        self.assertIsInstance(merged[0]["iterations"], int)

    def test_main_writes_a_valid_file_and_rejects_mismatches(self):
        out = pathlib.Path(self.dir.name) / "BENCH_median.json"
        paths = [str(path) for path in self.runs(3.0, 1.0, 2.0)]
        self.assertEqual(ebt.main(["--median", str(out)] + paths), 0)
        self.assertEqual(ebt.check([out]), [])
        self.assertEqual(json.loads(out.read_text())[0]["ops_per_sec"],
                         2.0)
        other = write(self.dir.name, "other.json", [GOOD])
        self.assertEqual(
            ebt.main(["--median", str(out), paths[0], str(other)]), 1)


class ExportTest(unittest.TestCase):
    def test_exports_per_iteration_nanoseconds(self):
        with tempfile.TemporaryDirectory() as directory:
            source = write(directory, "gbench.json", {
                "benchmarks": [
                    {"name": "BM_solve/8", "real_time": 2.5,
                     "time_unit": "us", "iterations": 1000},
                    {"name": "BM_solve/8_mean", "real_time": 2.5,
                     "time_unit": "us", "iterations": 3,
                     "run_type": "aggregate"},
                ]})
            written = ebt.export(source, pathlib.Path(directory))
            self.assertEqual(len(written), 1)
            record = json.loads(written[0].read_text())
            self.assertEqual(record["wall_ns"], 2500.0)
            self.assertEqual(record["iterations"], 1000)
            # The exporter's own output must satisfy its own checker.
            self.assertEqual(ebt.check(written), [])


if __name__ == "__main__":
    unittest.main()
