#!/usr/bin/env python3
"""Unit tests for check_tick_scaling.py, the flat-TICK N log N gate."""

import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check_tick_scaling as cts


def sweep(p99_by_agents, cohorts=None):
    records = [{"name": f"flat_tick_N{n}", "wall_ns": p99,
                "iterations": 1, "agents": n, "tick_p50_ns": p99,
                "tick_p99_ns": p99}
               for n, p99 in p99_by_agents.items()]
    if cohorts is not None:
        for record in records:
            record["name"] = record["name"].replace("_N", "_cohorts_N")
            record["cohorts"] = cohorts
    return records


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

    def test_each_cohort_series_is_gated_apart(self):
        # Interleaved, the two series are not doublings of each other;
        # apart, the plain one passes and the quadratic one fails.
        plain = sweep({n: n * n.bit_length() for n in (256, 512, 1024)})
        cohorts = {n: n * n for n in (256, 512, 1024)}
        errors = cts.violations(plain + sweep(cohorts, 2), 0.5)
        self.assertEqual(len(errors), 2)
        self.assertTrue(all(e.startswith("cohorts=2:") for e in errors))
        # A record without the field is in the cohorts=0 series.
        self.assertEqual(cts.violations(
            sweep({256: 256 * 9}) + sweep({512: 512 * 10}, 0), 0.5), [])

    def test_a_series_of_one_point_fails(self):
        plain = sweep({n: n * n.bit_length() for n in (256, 512)})
        self.assertEqual(
            len(cts.violations(plain + sweep({256: 1}, 2), 0.5)), 1)

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
