"""Tests for the benchmark's own reductions.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import benchlib


def rung(rate, latency_us, non2xx=0, dropped=0, backlog=0, wall_s=1.0):
    return {
        "rate": rate, "latency_us": latency_us, "non2xx": non2xx, "dropped": dropped,
        "backlog_at_end": backlog, "sent": len(latency_us) + non2xx + dropped,
        "completed": len(latency_us) + non2xx, "wall_s": wall_s,
    }


class NearestRank(unittest.TestCase):
    def test_reads_quantiles_off_a_known_sample(self):
        values = list(range(1, 1001))
        self.assertEqual(benchlib.nearest_rank(values, 0.5), 500)
        self.assertEqual(benchlib.nearest_rank(values, 0.99), 990)
        self.assertEqual(benchlib.nearest_rank(values, 1.0), 1000)
        self.assertEqual(benchlib.nearest_rank([7], 0.99), 7)

    def test_rejects_empty_samples_and_bad_quantiles(self):
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([], 0.5)
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([1, 2], 0.0)

    def test_p99_needs_ten_samples_beyond_it(self):
        # 1,000 samples leave exactly ten beyond the p99; 999 leave nine.
        self.assertEqual(benchlib.beyond(1000, 0.99), 10)
        self.assertEqual(benchlib.supported_percentile(list(range(1000)), 0.99), 989)
        self.assertIsNone(benchlib.supported_percentile(list(range(999)), 0.99))
        # The median of 20 samples has ten beyond it; of 19, nine.
        self.assertEqual(benchlib.supported_percentile(list(range(20)), 0.5), 9)
        self.assertIsNone(benchlib.supported_percentile(list(range(19)), 0.5))

    def test_failures_count_as_infinitely_slow(self):
        values = list(range(990))
        self.assertEqual(benchlib.supported_percentile(values, 0.99, failures=10), 989)
        self.assertEqual(benchlib.supported_percentile(values, 0.99, failures=11), math.inf)


class Ladder(unittest.TestCase):
    FAST = [100] * 2000
    SLOW = [100] * 1900 + [90_000] * 100

    def test_picks_the_highest_rung_meeting_the_limit(self):
        rungs = [rung(1000, self.FAST), rung(2000, self.FAST, wall_s=0.5), rung(4000, self.SLOW)]
        self.assertEqual(benchlib.ladder_pick(rungs, 50_000), (2000, 4000.0))

    def test_stops_at_the_first_miss_even_if_a_higher_rung_passes(self):
        rungs = [rung(4000, self.FAST), rung(1000, self.FAST), rung(2000, self.SLOW)]
        self.assertEqual(benchlib.ladder_pick(rungs, 50_000)[0], 1000)

    def test_failures_backlog_and_thin_samples_miss(self):
        self.assertFalse(benchlib.rung_passes(rung(1, self.FAST, non2xx=1), 50_000))
        self.assertFalse(benchlib.rung_passes(rung(1, self.FAST, dropped=1), 50_000))
        self.assertFalse(benchlib.rung_passes(rung(1, self.FAST, backlog=21), 50_000))
        self.assertTrue(benchlib.rung_passes(rung(1, self.FAST, backlog=20), 50_000))
        self.assertFalse(benchlib.rung_passes(rung(1, [100] * 999), 50_000))

    def test_no_passing_rung_reads_zero(self):
        self.assertEqual(benchlib.ladder_pick([rung(1000, self.SLOW)], 50_000), (0.0, 0.0))


DUMP_BEFORE = """metrics:
  counter serve.coalesce.hits = 10
  counter serve.coalesce.computations = 90
  hist    serve.request_us: n=100 mean=30.0 max=80 sum=3000
"""
DUMP_AFTER = """metrics:
  counter serve.batch.batches = 4
  counter serve.coalesce.hits = 25
  counter serve.coalesce.computations = 190
  hist    serve.request_us: n=250 mean=28.0 max=95 sum=7000
  warn    core.batch.pool_workers_env: ignored
"""


class MetricsDelta(unittest.TestCase):
    def test_parses_counters_and_histograms(self):
        counters, hists = benchlib.parse_metrics(DUMP_AFTER)
        self.assertEqual(counters["serve.coalesce.hits"], 25)
        self.assertEqual(hists["serve.request_us"], (250, 7000))
        self.assertNotIn("core.batch.pool_workers_env", counters)

    def test_deltas_subtract_and_count_new_names_from_zero(self):
        counters, hists = benchlib.metrics_delta(DUMP_BEFORE, DUMP_AFTER)
        self.assertEqual(counters["serve.coalesce.hits"], 15)
        self.assertEqual(counters["serve.coalesce.computations"], 100)
        self.assertEqual(counters["serve.batch.batches"], 4)
        self.assertEqual(hists["serve.request_us"], (150, 4000))


def span(id, parent, name, start, end, work=1):
    return {"id": id, "parent": parent, "name": name, "start_ns": start, "end_ns": end,
            "work": work}


class SelfTime(unittest.TestCase):
    def test_parent_minus_the_part_its_children_cover(self):
        spans = [
            span(0, None, "request", 0, 100),
            span(1, 0, "http.parse", 10, 30),
            span(2, 0, "api.render", 50, 90),
            span(3, 2, "inner", 60, 70),
        ]
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs, {0: 40, 1: 20, 2: 30, 3: 10})

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            span(0, None, "outer", 0, 100),
            span(1, 0, "a", 10, 60),
            span(2, 0, "b", 40, 80),
            span(3, 0, "late", 90, 130),
        ]
        self.assertEqual(benchlib.self_times(spans)[0], 100 - 70 - 10)

    def test_layer_totals_sum_by_name(self):
        spans = [
            span(0, None, "request", 0, 100),
            span(1, 0, "model.evaluate", 10, 50, work=4),
            span(2, None, "request", 200, 260),
            span(3, 2, "model.evaluate", 210, 230, work=1),
        ]
        totals = benchlib.layer_totals(spans)
        self.assertEqual(totals["request"]["count"], 2)
        self.assertAlmostEqual(totals["request"]["self_s"], 100e-9)
        self.assertEqual(totals["model.evaluate"]["work"], 5)
        self.assertAlmostEqual(totals["model.evaluate"]["dur_s"], 60e-9)


if __name__ == "__main__":
    unittest.main()
