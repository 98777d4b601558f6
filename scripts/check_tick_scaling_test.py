#!/usr/bin/env python3
"""Unit tests for check_tick_scaling.py, the flat-TICK N log N gate."""

import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check_tick_scaling as cts


def sweep(p99_by_agents):
    return [{"name": f"flat_tick_N{n}", "wall_ns": p99, "iterations": 1,
             "agents": n, "tick_p50_ns": p99, "tick_p99_ns": p99}
            for n, p99 in p99_by_agents.items()]


class ScalingGate(unittest.TestCase):
    def test_nlogn_growth_passes(self):
        p99 = {n: n * n.bit_length() * 100 for n in (256, 512, 1024)}
        self.assertEqual(cts.violations(sweep(p99), 0.5), [])

    def test_quadratic_growth_fails(self):
        p99 = {n: n * n for n in (256, 512, 1024)}
        self.assertEqual(len(cts.violations(sweep(p99), 0.5)), 2)

    def test_slack_is_the_allowance(self):
        # x2.5 per doubling from 1024: N log N allows x2.2, so a slack
        # of 0.1 fails and 0.5 passes.
        p99 = {1024: 1000, 2048: 2500}
        self.assertEqual(len(cts.violations(sweep(p99), 0.1)), 1)
        self.assertEqual(cts.violations(sweep(p99), 0.5), [])

    def test_rejects_gaps_and_single_points(self):
        self.assertTrue(cts.violations(sweep({256: 1, 1024: 4}), 0.5))
        self.assertTrue(cts.violations(sweep({256: 1}), 0.5))

    def test_main_reads_a_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            good = pathlib.Path(tmp) / "good.json"
            good.write_text(json.dumps(sweep({512: 10, 1024: 22})))
            self.assertEqual(cts.main([str(good)]), 0)
            bad = pathlib.Path(tmp) / "bad.json"
            bad.write_text("{")
            self.assertEqual(cts.main([str(bad)]), 1)


if __name__ == "__main__":
    unittest.main()
