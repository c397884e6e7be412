#!/usr/bin/env python3
"""Tests of the benchmark's own helpers.

    python3 perfbench/test_perfbench.py

Covers the quartile spread and the comparator's verdicts on synthetic
runs, then builds and runs the C++ self-test (percentiles, seeded
schedules, span self time).
"""
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import run  # noqa: E402

BENCH = {"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}


def fake_run(latency, failed=0, correct=True, named=None):
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {"latency_ms": {"value": latency, "unit": "ms"}}}
    return result, {"record": {}, "named": named or {}}


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics_exclusive_method(self):
        # quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
        self.assertAlmostEqual(compare.spread(list(range(1, 11))), 5.5)
        # quantiles([1, 2, 3, 4], n=4) = [1.25, 2.5, 3.75]
        self.assertAlmostEqual(compare.spread([4, 1, 3, 2]), 2.5)
        self.assertEqual(compare.spread([7.0] * 10), 0.0)


class VerdictTest(unittest.TestCase):
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]

    def test_unchanged_is_within(self):
        v, delta, _ = compare.verdict(self.parent, list(reversed(self.parent)), "lower", 0.1)
        self.assertEqual(v, "within")
        self.assertAlmostEqual(delta, 0.0)

    def test_clear_gain(self):
        change = [x * 0.8 for x in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1)[0], "gain")
        # Higher-is-better metrics flip the sign.
        self.assertEqual(compare.verdict(self.parent, change, "higher", 0.1)[0], "regressed")

    def test_small_consistent_gain_inside_spread_is_not_a_gain(self):
        change = [x - 0.05 for x in self.parent]  # wins every pair, < IQR
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1)[0], "within")

    def test_regression_beyond_bound(self):
        change = [x * 1.2 for x in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1)[0], "regressed")
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.25)[0], "within")

    def test_noisy_parent_is_unresolved(self):
        noisy = [5, 15, 7, 13, 9, 11, 6, 14, 8, 12]
        change = [x * 1.05 for x in noisy]
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1)[0], "unresolved")

    def test_noisy_but_every_change_run_better_resolves(self):
        noisy = [5, 15, 7, 13, 9, 11, 6, 14, 8, 12]
        change = [1.0 + 0.1 * i for i in range(10)]  # all below min(noisy)
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1)[0], "gain")


class WorkloadRowTest(unittest.TestCase):
    def runs(self, latencies, **kw):
        return [fake_run(x, **kw) for x in latencies]

    def test_pass(self):
        p = self.runs([10.0 + 0.01 * i for i in range(10)])
        ok, row = compare.compare_workload(p, p, BENCH)
        self.assertTrue(ok, row)

    def test_fail_on_regression(self):
        p = self.runs([10.0 + 0.01 * i for i in range(10)])
        c = self.runs([13.0 + 0.01 * i for i in range(10)])
        ok, row = compare.compare_workload(p, c, BENCH)
        self.assertFalse(ok)
        self.assertIn("latency_ms regressed", row)

    def test_fail_on_more_failures(self):
        p = self.runs([10.0] * 10)
        c = self.runs([8.0] * 10, failed=1)
        ok, row = compare.compare_workload(p, c, BENCH)
        self.assertFalse(ok)
        self.assertIn("MORE FAILURES", row)

    def test_fail_on_incorrect_run(self):
        p = self.runs([10.0] * 10)
        c = self.runs([10.0] * 9) + [fake_run(10.0, correct=False)]
        self.assertFalse(compare.compare_workload(p, c, BENCH)[0])

    def test_too_few_pairs(self):
        p = self.runs([10.0] * 9)
        ok, row = compare.compare_workload(p, p, BENCH)
        self.assertFalse(ok)
        self.assertIn("pairs", row)

    def test_named_metrics_are_compared(self):
        named = lambda v: {"reload_ms": {"value": v, "unit": "ms", "better": "lower", "bound": 0.1}}
        p = [fake_run(10.0, named=named(5.0 + 0.01 * i)) for i in range(10)]
        c = [fake_run(10.0, named=named(7.0 + 0.01 * i)) for i in range(10)]
        ok, row = compare.compare_workload(p, c, BENCH)
        self.assertFalse(ok)
        self.assertIn("reload_ms regressed", row)

    def test_load_side_reads_the_last_two_lines(self):
        with tempfile.TemporaryDirectory() as d:
            for k in range(2):
                result, detail = fake_run(1.0 + k)
                with open(os.path.join(d, f"serve_flood-{k}.txt"), "w") as f:
                    f.write("metric latency_ms 1 ms\n" + json.dumps(detail) + "\n" + json.dumps(result) + "\n")
            side = compare.load_side(d)
            self.assertEqual([r["metrics"]["latency_ms"]["value"] for r, _ in side["serve_flood"]], [1.0, 2.0])


class DefinitionsTest(unittest.TestCase):
    def test_layer_table_matches_benchmark_json(self):
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "cpp", "main.cpp")) as f:
            table = re.findall(r'^\s*\{"([A-Za-z0-9_.]+)", "([^"]+)",', f.read(), re.M)
        with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(table, [(m["name"], m["unit"]) for m in bench["per_layer"]])


class CppSelfTest(unittest.TestCase):
    def test_cpp_helpers(self):
        out = run.build()
        r = subprocess.run([os.path.join(out, "perfbench_selftest")], capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stdout)


if __name__ == "__main__":
    unittest.main()
