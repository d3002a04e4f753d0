"""Tests of the benchmark's Python side: the spread math and the metric
tables that BENCHMARK.json must mirror.  Run with
`python3 perfbench/run.py --test` (or `python3 -m unittest` in this
directory)."""
import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spread  # noqa: E402

ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def cpp_tables():
    """(end_to_end, per_layer) as declared in report.cpp, in order."""
    with open(os.path.join(HERE, "report.cpp")) as f:
        text = f.read()
    entry = re.compile(r'\{"([^"]+)", "([^"]+)", "(lower|higher)"')
    e2e_part, layer_part = text.split("kPerLayer = {", 1)
    return entry.findall(e2e_part), entry.findall(layer_part)


class SpreadMath(unittest.TestCase):
    def test_quartile_distance_over_median(self):
        # quantiles([1..10], n=4) -> 2.75, 5.5, 8.25 (exclusive method)
        self.assertAlmostEqual(spread.spread(list(range(1, 11))), 5.5 / 5.5)
        self.assertAlmostEqual(spread.spread([10.0] * 5), 0.0)
        self.assertAlmostEqual(spread.spread([9, 10, 10, 10, 11]), 1.0 / 10)

    def test_seed_ranges(self):
        self.assertEqual(spread.parse_seeds("3-6"), [3, 4, 5, 6])
        self.assertEqual(spread.parse_seeds("7"), [7])


class BenchmarkJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_metrics_mirror_report_cpp(self):
        e2e, layer = cpp_tables()
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.bench["end_to_end"]],
                         e2e)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.bench["per_layer"]],
                         layer)

    def test_shape_and_bounds(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60)
        names = [w["name"] for w in b["workloads"]]
        names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
        self.assertTrue(all(0 < v <= 0.25 for v in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_campaign_fits_an_hour(self):
        # A regression campaign is 4 + 22 runs per workload plus two cold
        # builds, within 3420 s.  Allow 8 s per run on top of run_seconds
        # for the build check, set-up and the output checks.
        runs = 4 + 22 * len(self.bench["workloads"])
        self.assertLess(runs * (self.bench["run_seconds"] + 8), 3420 - 2 * 300)


if __name__ == "__main__":
    unittest.main()
