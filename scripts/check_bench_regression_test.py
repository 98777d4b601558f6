#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py: the throughput floor and
the --max-rise ceiling on a lower-is-better field."""

import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check_bench_regression as cbr

BASE = [{"name": "small", "wall_ns": 10000, "iterations": 10,
         "heap_bytes_per_agent": 100.0},
        {"name": "large", "wall_ns": 40000, "iterations": 10,
         "heap_bytes_per_agent": 120.0}]


class GateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.baseline = self.write("base.json", BASE)

    def write(self, name, payload):
        path = pathlib.Path(self.dir.name) / name
        path.write_text(json.dumps(payload))
        return str(path)

    def run_gate(self, records, *extra):
        current = self.write("current.json", records)
        return cbr.main(["--baseline", self.baseline, "--current",
                         current, *extra])

    def with_heap(self, small, large):
        return [{**BASE[0], "heap_bytes_per_agent": small},
                {**BASE[1], "heap_bytes_per_agent": large}]

    def test_throughput_floor(self):
        self.assertEqual(self.run_gate(BASE), 0)
        slower = [{**BASE[0], "wall_ns": 20000}, BASE[1]]
        self.assertEqual(self.run_gate(slower, "--tolerance", "0.25"),
                         1)

    def test_max_rise_allows_up_to_the_bound(self):
        rise = ["--max-rise", "heap_bytes_per_agent:0.10"]
        self.assertEqual(self.run_gate(self.with_heap(110.0, 90.0),
                                       *rise), 0)
        self.assertEqual(self.run_gate(self.with_heap(100.0, 132.5),
                                       *rise), 1)
        self.assertEqual(self.run_gate(self.with_heap(110.5, 120.0),
                                       *rise), 1)

    def test_max_rise_needs_the_field_in_the_current_run(self):
        missing = [BASE[0], {k: v for k, v in BASE[1].items()
                             if k != "heap_bytes_per_agent"}]
        self.assertEqual(
            self.run_gate(missing, "--max-rise",
                          "heap_bytes_per_agent:0.10"), 1)

    def test_max_rise_skips_records_without_a_baseline_value(self):
        self.baseline = self.write(
            "base.json", [{k: v for k, v in record.items()
                           if k != "heap_bytes_per_agent"}
                          for record in BASE])
        self.assertEqual(
            self.run_gate(self.with_heap(500.0, 500.0), "--max-rise",
                          "heap_bytes_per_agent:0.10"), 0)

    def test_malformed_max_rise_is_a_usage_error(self):
        self.assertEqual(
            self.run_gate(BASE, "--max-rise", "heap_bytes_per_agent"),
            2)
        self.assertEqual(
            self.run_gate(BASE, "--max-rise", "heap:lots"), 2)


if __name__ == "__main__":
    unittest.main()
