#!/usr/bin/env python3
"""Tests for the benchmark's own logic (stdlib unittest):

    python3 -m unittest discover -s fbbench -p 'test_*.py'
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import fbstats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(fbstats.nearest_rank(values, 50), 50)
        self.assertEqual(fbstats.nearest_rank(values, 99), 99)
        self.assertEqual(fbstats.nearest_rank(values, 100), 100)
        self.assertEqual(fbstats.nearest_rank([7.0], 99), 7.0)
        self.assertEqual(fbstats.nearest_rank([3, 1, 2], 50), 2)
        with self.assertRaises(ValueError):
            fbstats.nearest_rank([], 50)

    def test_ten_samples_beyond(self):
        # p99 needs 1000 samples: exactly 10 lie beyond the 990th.
        self.assertEqual(fbstats.samples_beyond(1000, 99), 10)
        self.assertTrue(fbstats.supports(1000, 99))
        self.assertFalse(fbstats.supports(999, 99))
        # p90 needs 100 samples; p50 needs 20.
        self.assertTrue(fbstats.supports(100, 90))
        self.assertFalse(fbstats.supports(99, 90))
        self.assertTrue(fbstats.supports(20, 50))
        self.assertFalse(fbstats.supports(19, 50))

    def test_highest_supported(self):
        self.assertEqual(fbstats.highest_supported(10000), 99.9)
        self.assertEqual(fbstats.highest_supported(1200), 99.0)
        self.assertEqual(fbstats.highest_supported(150), 90.0)
        self.assertEqual(fbstats.highest_supported(27), 50.0)
        self.assertIsNone(fbstats.highest_supported(3))


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(fbstats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(fbstats.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_relative_spread(self):
        values = [10.0, 10.0, 10.0, 10.0]
        self.assertEqual(fbstats.relative_spread(values), 0.0)
        values = [9.0, 10.0, 10.0, 11.0]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(fbstats.relative_spread(values),
                               (q3 - q1) / median)
        self.assertEqual(fbstats.relative_spread([0.0, 0.0]), 0.0)
        self.assertTrue(math.isinf(fbstats.relative_spread([-1.0, 0.0, 0.0, 1.0])))


EXPOSITION = """\
# HELP fairbc_queries_total queries accepted by the executor
# TYPE fairbc_queries_total counter
fairbc_queries_total 1200
fairbc_cache_hits_total 815
fairbc_server_errors_total{code="busy"} 3
fairbc_server_errors_total{code="bad_request"} 0
fairbc_query_phase_seconds_bucket{phase="peel",le="1e-06"} 0
fairbc_query_phase_seconds_bucket{le="+Inf",phase="peel"} 42
fairbc_query_phase_seconds_sum{phase="peel"} 3.5
fairbc_labels_escaped{path="a\\"b"} 1.5e3
fairbc_with_timestamp 7 1700000000000
"""


class PrometheusTest(unittest.TestCase):
    def test_parse(self):
        series = fbstats.parse_prometheus(EXPOSITION)
        self.assertEqual(series["fairbc_queries_total"], 1200)
        self.assertEqual(series["fairbc_cache_hits_total"], 815)
        self.assertEqual(series['fairbc_server_errors_total{code="busy"}'], 3)
        self.assertEqual(series['fairbc_server_errors_total{code="bad_request"}'], 0)
        # Labels are keyed in sorted order whatever order they came in.
        self.assertEqual(
            series['fairbc_query_phase_seconds_bucket{le="+Inf",phase="peel"}'], 42)
        self.assertEqual(
            series['fairbc_query_phase_seconds_bucket{le="1e-06",phase="peel"}'], 0)
        self.assertEqual(series['fairbc_query_phase_seconds_sum{phase="peel"}'], 3.5)
        self.assertEqual(series['fairbc_labels_escaped{path="a\\"b"}'], 1500.0)
        self.assertEqual(series["fairbc_with_timestamp"], 7)
        self.assertEqual(len(series), 9)

    def test_series_key(self):
        self.assertEqual(fbstats.series_key("m"), "m")
        self.assertEqual(fbstats.series_key("m", {"b": "2", "a": "1"}),
                         'm{a="1",b="2"}')

    def test_special_values(self):
        series = fbstats.parse_prometheus("a +Inf\nb -Inf\nc NaN\n")
        self.assertEqual(series["a"], math.inf)
        self.assertEqual(series["b"], -math.inf)
        self.assertTrue(math.isnan(series["c"]))

    def test_malformed(self):
        for bad in ("fairbc_x", "fairbc_x{code=busy} 1", "1bad 2",
                    "fairbc_x notanumber"):
            with self.assertRaises(ValueError, msg=bad):
                fbstats.parse_prometheus(bad)

    def test_delta(self):
        before = {"c": 10.0}
        after = {"c": 25.0, "d": 4.0}
        self.assertEqual(fbstats.delta(before, after, "c"), 15.0)
        self.assertEqual(fbstats.delta(before, after, "d"), 4.0)
        self.assertEqual(fbstats.delta(before, after, "e"), 0.0)


def noisy(center, n=10, step=0.01):
    """n values alternating around center by +-step*k (spread ~ 2.5 step)."""
    return [center * (1 + step * ((i % 5) - 2)) for i in range(n)]


class DecideTest(unittest.TestCase):
    def test_clear_gain_is_better(self):
        parent = noisy(100.0)
        change = noisy(80.0)
        self.assertEqual(fbstats.decide(parent, change, "lower", 0.1),
                         fbstats.BETTER)
        self.assertEqual(fbstats.decide(change, parent, "higher", 0.1),
                         fbstats.BETTER)

    def test_needs_ten_pairs(self):
        self.assertEqual(fbstats.decide(noisy(100.0, 9), noisy(80.0, 9),
                                        "lower", 0.1), fbstats.UNRESOLVED)

    def test_nine_of_ten_wins(self):
        parent = [100.0] * 10
        change = [80.0] * 9 + [120.0]
        self.assertEqual(fbstats.decide(parent, change, "lower", 0.5),
                         fbstats.BETTER)
        change = [80.0] * 8 + [120.0, 120.0]
        self.assertNotEqual(fbstats.decide(parent, change, "lower", 0.5),
                            fbstats.BETTER)

    def test_ties_count_for_neither(self):
        parent = [100.0] * 10
        change = [90.0] * 8 + [100.0, 100.0]
        self.assertNotEqual(fbstats.decide(parent, change, "lower", 0.5),
                            fbstats.BETTER)

    def test_gain_within_parent_spread_is_not_better(self):
        parent = [90.0, 110.0] * 5  # interquartile distance 20
        change = [c - 5.0 for c in parent]  # wins every pair by 5
        self.assertEqual(fbstats.decide(parent, change, "lower", 0.25),
                         fbstats.UNCHANGED)

    def test_loss_beyond_bound_is_worse(self):
        self.assertEqual(fbstats.decide(noisy(100.0), noisy(120.0), "lower", 0.1),
                         fbstats.WORSE)
        self.assertEqual(fbstats.decide(noisy(100.0), noisy(80.0), "higher", 0.1),
                         fbstats.WORSE)

    def test_loss_within_bound_is_unchanged(self):
        self.assertEqual(fbstats.decide(noisy(100.0), noisy(105.0), "lower", 0.1),
                         fbstats.UNCHANGED)

    def test_wide_parent_spread_is_unresolved(self):
        parent = [60.0, 140.0] * 5
        change = [61.0, 139.0] * 5
        self.assertEqual(fbstats.decide(parent, change, "lower", 0.1),
                         fbstats.UNRESOLVED)

    def test_wide_spread_but_dominating_change(self):
        parent = [100.0, 140.0] * 5
        change = [50.0, 99.0] * 5  # every change run beats every parent run
        self.assertEqual(fbstats.decide(parent, change, "lower", 0.1),
                         fbstats.BETTER)
        change = [101.0, 139.0] * 5
        self.assertEqual(fbstats.decide(parent, change, "lower", 0.1),
                         fbstats.UNRESOLVED)

    def test_exact_counts(self):
        self.assertEqual(fbstats.decide([15498] * 3, [15498] * 3, "lower", 0.0,
                                        exact=True), fbstats.UNCHANGED)
        self.assertEqual(fbstats.decide([15498] * 3, [15000] * 3, "lower", 0.0,
                                        exact=True), fbstats.BETTER)
        self.assertEqual(fbstats.decide([15498] * 3, [16000] * 3, "lower", 0.0,
                                        exact=True), fbstats.WORSE)
        # A count that does not repeat falls back to the timing rule.
        self.assertEqual(fbstats.decide([1, 2, 3], [1, 2, 3], "lower", 0.0,
                                        exact=True), fbstats.UNRESOLVED)


if __name__ == "__main__":
    unittest.main()
