"""Tests of the steadiness check's quartile and spread computation."""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import steady  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(steady.spread(values), (q3 - q1) / med)

    def test_known_values(self):
        # quantiles([1..9]) with the default exclusive method: 2.5, 5, 7.5
        self.assertAlmostEqual(steady.spread([float(x) for x in range(1, 10)]), 1.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(steady.spread([4.0] * 10), 0.0)

    def test_last_json_reads_the_last_line(self):
        out = 'progress\n  wall_s 1.0 s\n{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}\n'
        self.assertEqual(steady.last_json(out)["attempted"], 1)


if __name__ == "__main__":
    unittest.main()
