"""Tests of the benchmark's statistics helpers and metric tables.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(samples, 50), 50)
        self.assertEqual(stats.percentile(samples, 99), 99)
        self.assertEqual(stats.percentile(samples, 100), 100)
        self.assertEqual(stats.percentile([7.5], 99), 7.5)

    def test_unsorted_input(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_empty_rejected(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailTest(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99.0), 10)
        self.assertEqual(stats.samples_beyond(999, 99.0), 9)
        self.assertEqual(stats.samples_beyond(100, 90.0), 10)

    def test_p99_needs_a_thousand_samples(self):
        self.assertTrue(stats.supports(1000, 99.0))
        self.assertFalse(stats.supports(999, 99.0))
        self.assertFalse(stats.supports(0, 50.0))

    def test_highest_supported_percentile(self):
        samples = [float(i) for i in range(1, 1001)]
        self.assertEqual(stats.tail(samples), (99.0, 990.0, 1000))
        self.assertEqual(stats.tail(samples * 10)[0], 99.9)
        self.assertEqual(stats.tail(samples[:200])[0], 95.0)
        self.assertEqual(stats.tail(samples[:20])[0], 50.0)
        self.assertIsNone(stats.tail(samples[:19]))


class AcrossRunsTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.1, 2.9, 3.4, 3.0, 3.3, 2.8, 3.2, 3.05, 2.95, 3.15]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q2, q3))
        self.assertEqual(stats.median(values), statistics.median(values))
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([4.0] * 10), 0.0)
        self.assertEqual(stats.spread([0.0] * 10), 0.0)
        self.assertEqual(stats.quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_zero_median_with_spread_is_infinite(self):
        self.assertTrue(math.isinf(stats.spread([-1.0, 0.0, 0.0, 0.0, 1.0])))


class FailedShareTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(stats.failed_share(200, 0), 0.0)
        self.assertEqual(stats.failed_share(200, 5), 0.025)

    def test_nothing_attempted(self):
        with self.assertRaises(ValueError):
            stats.failed_share(0, 0)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            (1, -1, "dm_query", 0, 100),
            (2, 1, "dm_fetch", 10, 40),
            (3, 2, "index", 10, 20),
            (4, 2, "dm_store", 20, 38),
            (5, 1, "dm_fetch", 50, 70),
        ]
        totals = stats.self_times(spans)
        self.assertEqual(totals["dm_query"], (1, 100, 50))
        self.assertEqual(totals["dm_fetch"], (2, 50, 22))
        self.assertEqual(totals["index"], (1, 10, 10))

    def test_overlapping_and_outlying_children(self):
        spans = [
            (1, -1, "request", 100, 200),
            (2, 1, "a", 90, 130),    # starts before its parent
            (3, 1, "b", 120, 150),   # overlaps a
            (4, 1, "c", 190, 230),   # ends after its parent
        ]
        self.assertEqual(stats.self_times(spans)["request"], (1, 100, 40))

    def test_read_spans(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.tsv"
            path.write_text("7\t-1\t7\tdm_query\t5\t9\n8\t7\t7\tindex\t6\t7\n",
                            encoding="utf-8")
            self.assertEqual(stats.read_spans(path),
                             [(7, -1, "dm_query", 5, 9), (8, 7, "index", 6, 7)])


class MetricTableTest(unittest.TestCase):
    """run.py prints exactly the metrics BENCHMARK.json declares."""

    def setUp(self):
        path = HERE.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        self.spec = json.loads(path.read_text(encoding="utf-8"))

    def test_end_to_end(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END_UNITS)

    def test_per_layer(self):
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, run.PER_LAYER_UNITS)

    def test_workloads(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
