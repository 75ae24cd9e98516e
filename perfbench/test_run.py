"""Tests of run.py's compare verdicts and result checks.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import io
import json
import os
import tempfile
import unittest

import run


def record(workload, values, trace=False):
    return {
        "workload": workload,
        "trace": trace,
        "metrics": {k: {"value": v, "unit": "ms"} for k, v in values.items()},
    }


class VerdictTest(unittest.TestCase):
    def test_within_bound_when_medians_differ_less_than_the_bound(self):
        a = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        b = [x * 1.05 for x in a]
        self.assertEqual(run.verdict(a, b, "lower", 0.2), "within bound")

    def test_worse_beyond_the_bound(self):
        a = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        b = [x * 1.3 for x in a]
        self.assertEqual(run.verdict(a, b, "lower", 0.2), "worse")
        # For a higher-is-better metric the same numbers are a gain.
        self.assertEqual(run.verdict(a, b, "higher", 0.2), "better")

    def test_better_beyond_the_spread(self):
        a = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        b = [x * 0.9 for x in a]
        self.assertEqual(run.verdict(a, b, "lower", 0.2), "better")

    def test_unresolved_when_spread_exceeds_bound_and_samples_overlap(self):
        a = [50, 150, 80, 120, 60, 140, 100, 90, 110, 70]
        b = [x * 1.1 for x in a]
        self.assertEqual(run.verdict(a, b, "lower", 0.1), "unresolved")

    def test_wide_spread_still_decides_when_every_sample_wins(self):
        a = [100, 140, 110, 130, 120]
        b = [10, 14, 11, 13, 12]
        self.assertEqual(run.verdict(a, b, "lower", 0.05), "better")
        self.assertEqual(run.verdict(b, a, "lower", 0.05), "worse")

    def test_per_layer_metrics_use_their_own_spread(self):
        a = [10.0, 10.1, 9.9, 10.0, 10.2]
        self.assertEqual(run.verdict(a, [x * 1.5 for x in a], "lower", None), "worse")
        self.assertEqual(run.verdict(a, [x * 1.001 for x in a], "lower", None), "within bound")

    def test_equal_medians_are_within_bound(self):
        self.assertEqual(run.verdict([0, 0], [0, 0], "lower", 0.1), "within bound")
        self.assertEqual(run.verdict([5], [5], "higher", None), "within bound")

    def test_quartiles_follow_statistics_quantiles(self):
        self.assertEqual(run.quartiles([7]), (7, 7, 7))
        q1, med, q3 = run.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        self.assertLess(q1, med)
        self.assertLess(med, q3)


class CompareTest(unittest.TestCase):
    def test_compare_reports_each_workload_and_metric(self):
        with tempfile.TemporaryDirectory() as d:
            pa, pb = os.path.join(d, "a.jsonl"), os.path.join(d, "b.jsonl")
            with open(pa, "w") as f:
                for v in (100, 102, 98):
                    f.write(json.dumps(record("explore-cold", {"p50_ms": v})) + "\n")
            with open(pb, "w") as f:
                for v in (150, 152, 148):
                    f.write(json.dumps(record("explore-cold", {"p50_ms": v})) + "\n")
            out = io.StringIO()
            rows = run.compare(pa, pb, out)
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0][1], "p50_ms")
        self.assertEqual(rows[0][-1], "worse")
        self.assertIn("explore-cold", out.getvalue())


class ResultTest(unittest.TestCase):
    def result(self, **overrides):
        names = run.metric_names(False)
        result = {
            "correct": True,
            "attempted": 3,
            "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": "s"} for n in names},
        }
        result.update(overrides)
        return json.dumps(result)

    def test_accepts_a_complete_result(self):
        self.assertIsNotNone(run.valid_result(self.result(), False))

    def test_rejects_malformed_results(self):
        self.assertIsNone(run.valid_result("not json", False))
        self.assertIsNone(run.valid_result(self.result(attempted=0), False))
        self.assertIsNone(run.valid_result(self.result(metrics={}), False))
        self.assertIsNone(run.valid_result(self.result(), True), "per-layer names differ")


if __name__ == "__main__":
    unittest.main()
