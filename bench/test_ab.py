#!/usr/bin/env python3
"""Unit tests of bench/ab.py's verdict rule and exit status.

    python3 bench/test_ab.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

BOUND = 0.25
# median 100, quartiles 99 and 101: a spread of 2%
TIGHT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
# median 100, quartiles 77.5 and 122.5: wider than the bound
WIDE = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]


def scaled(xs, k):
    return [x * k for x in xs]


def runs(*failed, correct=True):
    return [{"result": {"correct": correct, "attempted": 1000, "failed": f}} for f in failed]


class Verdict(unittest.TestCase):
    def check(self, expected, base, change, better):
        self.assertEqual(ab.verdict(base, change, better, BOUND), expected)

    def test_regression_in_both_directions(self):
        self.check("REGRESSION", TIGHT, scaled(TIGHT, 0.7), "higher")
        self.check("REGRESSION", TIGHT, scaled(TIGHT, 1.3), "lower")

    def test_worse_within_the_bound_is_no_change(self):
        self.check("no change", TIGHT, scaled(TIGHT, 0.8), "higher")
        self.check("no change", TIGHT, scaled(TIGHT, 1.2), "lower")

    def test_gain_in_both_directions(self):
        self.check("gain", TIGHT, scaled(TIGHT, 1.1), "higher")
        self.check("gain", TIGHT, scaled(TIGHT, 0.9), "lower")

    def test_eight_wins_in_ten_is_not_a_gain(self):
        change = scaled(TIGHT, 1.1)
        change[0] = change[1] = 90
        self.check("no change", TIGHT, change, "higher")

    def test_a_gain_must_clear_the_base_iqr(self):
        self.check("no change", TIGHT, [x + 1 for x in TIGHT], "higher")
        self.check("no change", TIGHT, [x - 1 for x in TIGHT], "lower")

    def test_a_wide_base_spread_is_unresolved(self):
        self.check("unresolved", WIDE, list(reversed(WIDE)), "higher")
        self.check("unresolved", WIDE, list(reversed(WIDE)), "lower")

    def test_a_wide_spread_resolves_when_every_change_run_is_better(self):
        self.check("gain", WIDE, [200 + i for i in range(10)], "higher")
        self.check("gain", WIDE, [10 + i for i in range(10)], "lower")

    def test_a_regression_beyond_the_bound_is_not_hidden_by_a_wide_spread(self):
        self.check("REGRESSION", WIDE, scaled(WIDE, 0.5), "higher")
        self.check("REGRESSION", WIDE, scaled(WIDE, 2.0), "lower")

    def test_ties_count_for_neither_side(self):
        self.assertEqual(ab.wins([1, 2, 3], [1, 3, 2], "higher"), 1)
        self.assertEqual(ab.wins([1, 2, 3], [1, 3, 2], "lower"), 1)


class ExitStatus(unittest.TestCase):
    def test_clean_runs_pass(self):
        self.assertEqual(ab.exit_status(["no change", "gain", "unresolved"], runs(0, 0), runs(0, 0)), 0)

    def test_a_regression_fails(self):
        self.assertEqual(ab.exit_status(["gain", "REGRESSION"], runs(0), runs(0)), 1)

    def test_a_larger_failed_share_fails(self):
        self.assertEqual(ab.exit_status([], runs(0, 0), runs(0, 1)), 1)

    def test_an_equal_or_smaller_failed_share_passes(self):
        self.assertEqual(ab.exit_status([], runs(2, 0), runs(1, 1)), 0)
        self.assertEqual(ab.exit_status([], runs(2, 0), runs(0, 0)), 0)

    def test_a_run_that_is_not_correct_fails(self):
        self.assertEqual(ab.exit_status([], runs(0), runs(0, correct=False)), 1)
        self.assertEqual(ab.exit_status([], runs(0) + [{"result": None}], runs(0)), 1)


if __name__ == "__main__":
    unittest.main()
