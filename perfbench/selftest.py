"""Self-test of the benchmark's own arithmetic; needs no lyagate import.

Run: python3 perfbench/selftest.py
"""

import statistics
import unittest

import stats
import tracer as tr


def span(sid, parent, name, start, end, counts=None):
    return tr.Span(sid, parent, name, start, end, counts)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [span(0, None, "bench.op", 0.0, 10.0),
                 span(1, 0, "sim.simulate", 1.0, 4.0),
                 span(2, 1, "partition.locate", 2.0, 3.0),
                 span(3, 0, "tga.replay", 5.0, 6.0)]
        selfs = tr.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 3.0 - 1.0)
        self.assertAlmostEqual(selfs[1], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 1.0)
        self.assertAlmostEqual(selfs[3], 1.0)

    def test_overlapping_and_overhanging_children_count_their_union(self):
        self.assertAlmostEqual(
            tr.covered_length(0.0, 10.0, [(1, 4), (3, 5), (9, 12), (-2, 0.5)]),
            4.0 + 1.0 + 0.5)
        self.assertEqual(tr.covered_length(0.0, 1.0, []), 0.0)

    def test_layer_metrics_are_per_operation(self):
        spans = []
        for k in range(2):
            base = 10.0 * k
            spans += [
                span(4 * k, None, tr.OP, base, base + 8.0),
                span(4 * k + 1, 4 * k, "partition.uniform_point_in",
                     base, base + 1.0),
                span(4 * k + 2, 4 * k + 1, "partition.locate",
                     base, base + 0.5),
                span(4 * k + 3, 4 * k, "sim.simulate", base + 1.0, base + 7.0,
                     {"steps": 100, "events": 3, "exits": 0}),
            ]
        spans.append(span(8, None, tr.SETUP, 30.0, 31.0))
        spans.append(span(9, 8, "model.validate_levels", 30.0, 30.25))
        m = tr.layer_metrics(spans)
        self.assertEqual(m["trace.ops"], 2)
        self.assertAlmostEqual(m["sim.simulate_s"], 6.0)
        self.assertEqual(m["sim.steps"], 100)
        self.assertAlmostEqual(m["sim.us_per_step"], 1e6 * 6.0 / 100)
        self.assertEqual(m["partition.locate_calls"], 1)
        self.assertEqual(m["partition.sample_accept_ratio"], 1.0)
        self.assertAlmostEqual(m["partition.self_s"], 1.0)
        self.assertAlmostEqual(m["bench.self_s"], 1.0)
        self.assertEqual(m["model.validate_levels_s"], 0.0)
        self.assertAlmostEqual(m["setup.model.self_s"], 0.25)


class Quartiles(unittest.TestCase):
    def test_spread_matches_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.quartile_spread([2.0] * 5), 0.0)


class FailRatio(unittest.TestCase):
    def test_ratio_with_its_base(self):
        self.assertEqual(stats.fail_ratio(36, 40), 0.9)
        self.assertEqual(stats.fail_ratio(0, 3), 0.0)

    def test_rejects_an_empty_or_inconsistent_base(self):
        with self.assertRaises(ValueError):
            stats.fail_ratio(0, 0)
        with self.assertRaises(ValueError):
            stats.fail_ratio(5, 4)


if __name__ == "__main__":
    unittest.main()
