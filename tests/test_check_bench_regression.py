#!/usr/bin/env python3
"""Unit tests for tools/check_bench_regression.py.

Each test writes a baseline and a current BENCH_*.json into a temp
directory and runs the checker on them as CI does. Registered in ctest
as test_check_bench_regression.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
    "check_bench_regression.py")


class CheckerCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, bench, metrics):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"bench": bench, "metrics": metrics}, f)
        return path

    def check(self, bench, base, cur, *extra):
        """Runs the checker; returns (exit code, stdout + stderr)."""
        proc = subprocess.run(
            [sys.executable, CHECKER,
             "--baseline", self.write("base.json", bench, base),
             "--current", self.write("cur.json", bench, cur), *extra],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr


class QpsLabelTest(CheckerCase):
    def test_faults_gain_reads_better(self):
        code, out = self.check("bench_faults", {"rate_0/qps": 100.0},
                               {"rate_0/qps": 125.0})
        self.assertEqual(code, 0, out)
        self.assertIn("(25.0% better) ok", out)
        self.assertNotIn("worse", out)

    def test_faults_drop_reads_worse(self):
        code, out = self.check("bench_faults", {"rate_0/qps": 100.0},
                               {"rate_0/qps": 90.0})
        self.assertEqual(code, 0, out)
        self.assertIn("(10.0% worse) ok", out)
        self.assertNotIn("better", out)

    def test_faults_drop_beyond_limit_fails_as_worse(self):
        code, out = self.check("bench_faults", {"rate_0/qps": 100.0},
                               {"rate_0/qps": 50.0}, "--max-qps-drop-pct",
                               "40")
        self.assertEqual(code, 1, out)
        self.assertIn("50.0% worse > 40% allowed", out)

    def test_chaos_qps_labels_follow_the_sign(self):
        clean = {"errors": 0, "identity_ok": 1, "deterministic_ok": 1,
                 "availability": 1.0, "degraded_fraction": 0.0}
        code, out = self.check("bench_chaos", {**clean, "qps": 200.0},
                               {**clean, "qps": 250.0})
        self.assertEqual(code, 0, out)
        self.assertIn("qps: baseline 200.0 current 250.0 (25.0% better) ok",
                      out)
        code, out = self.check("bench_chaos", {**clean, "qps": 200.0},
                               {**clean, "qps": 150.0})
        self.assertEqual(code, 0, out)
        self.assertIn("qps: baseline 200.0 current 150.0 (25.0% worse) ok",
                      out)


class FigureGateTest(CheckerCase):
    BASE = {
        "fig6a/x_1/DM-SB": 26.3333,
        "fig6a/x_1/DM-MB": 27.0,
        "fig6a/x_1/PM": 209.0,
        "fig6a/x_1/HDoV": 43.0,
    }

    def test_equal_dm_cells_pass(self):
        for bench in ("fig6_uniform", "fig8_viewdep"):
            code, out = self.check(bench, self.BASE, dict(self.BASE))
            self.assertEqual(code, 0, out)
            self.assertIn("2 metrics compared", out)

    def test_any_moved_dm_cell_fails_even_when_lower(self):
        cur = dict(self.BASE, **{"fig6a/x_1/DM-SB": 26.0})
        code, out = self.check("fig6_uniform", self.BASE, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("fig6a/x_1/DM-SB", out)
        self.assertIn("CHANGED", out)

    def test_baseline_arms_are_not_gated(self):
        cur = dict(self.BASE, **{"fig6a/x_1/PM": 1.0,
                                 "fig6a/x_1/HDoV": 999.0})
        code, out = self.check("fig6_uniform", self.BASE, cur)
        self.assertEqual(code, 0, out)

    def test_cell_in_one_file_only_fails(self):
        cur = dict(self.BASE)
        del cur["fig6a/x_1/DM-MB"]
        code, out = self.check("fig6_uniform", self.BASE, cur)
        self.assertEqual(code, 1, out)
        extra = dict(self.BASE, **{"fig8d/x_1/DM-BF": 80.0})
        code, out = self.check("fig8_viewdep", self.BASE, extra)
        self.assertEqual(code, 1, out)

    def test_bench_kind_mismatch_is_refused(self):
        proc = subprocess.run(
            [sys.executable, CHECKER,
             "--baseline", self.write("a.json", "fig6_uniform", self.BASE),
             "--current", self.write("b.json", "fig8_viewdep", self.BASE)],
            capture_output=True, text=True, check=False)
        self.assertNotEqual(proc.returncode, 0)


if __name__ == "__main__":
    unittest.main()
