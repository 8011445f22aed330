"""Self-tests of the benchmark's own arithmetic (no program run needed).

Run with ``python3 -m unittest discover -s perfbench`` or
``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _span(span_id, name, start, end, parent=None):
    return {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "counts": {}}


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(common.tail_percentile(200), 95.0)
        self.assertEqual(common.tail_percentile(199), 90.0)
        self.assertEqual(common.tail_percentile(1000), 99.0)
        self.assertEqual(common.tail_percentile(40), 75.0)
        self.assertEqual(common.tail_percentile(20), 50.0)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(common.tail_percentile(13))
        self.assertIsNone(common.tail_percentile(0))

    def test_interpolated_percentile(self):
        self.assertEqual(common.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(common.percentile(list(range(101)), 95), 95)
        self.assertEqual(common.median([7.0]), 7.0)
        with self.assertRaises(ValueError):
            common.percentile([], 50)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            _span(0, "root", 0.0, 10.0),
            _span(1, "a", 1.0, 4.0, parent=0),
            _span(2, "b", 5.0, 6.0, parent=0),
            _span(3, "leaf", 2.0, 3.0, parent=1),
        ]
        self.assertEqual(
            tracing.self_times(spans), {"root": 6.0, "a": 2.0, "b": 1.0, "leaf": 1.0}
        )

    def test_overlapping_children_are_counted_once(self):
        # Children from two threads may overlap; the covered part of the
        # parent's interval is their union, clipped to the parent.
        spans = [
            _span(0, "root", 0.0, 10.0),
            _span(1, "a", 1.0, 4.0, parent=0),
            _span(2, "a", 3.0, 6.0, parent=0),
            _span(3, "a", 9.0, 12.0, parent=0),
        ]
        totals = tracing.self_times(spans)
        self.assertAlmostEqual(totals["root"], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(totals["a"], 3.0 + 3.0 + 3.0)

    def test_same_name_spans_add_up(self):
        spans = [_span(0, "x", 0.0, 1.0), _span(1, "x", 2.0, 4.5)]
        self.assertEqual(tracing.self_times(spans), {"x": 3.5})

    def test_tracer_links_parents_and_counts(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda n: list(range(n)), counts=lambda out: {"items": len(out)})
        outer = tracer.wrap("outer", lambda: inner(3) + inner(2))
        self.assertEqual(outer(), [0, 1, 2, 0, 1])
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span["name"], []).append(span)
        (root,) = by_name["outer"]
        self.assertIsNone(root["parent"])
        self.assertEqual([span["parent"] for span in by_name["inner"]], [root["id"]] * 2)
        self.assertEqual(tracing.count_totals(tracer.spans)["inner"], {"spans": 2, "items": 5})
        totals = tracing.self_times(tracer.spans)
        self.assertGreaterEqual(totals["outer"], 0.0)
        self.assertLessEqual(totals["outer"], root["end"] - root["start"])


class MetricNames(unittest.TestCase):
    def test_legal_names(self):
        for name in ("setup_s", "ostr.search_s", "p-95", "A1"):
            self.assertEqual(common.check_metric_name(name), name)

    def test_illegal_names(self):
        for name in ("", "two words", "a/b", "x" * 65, "ms\n", None):
            with self.assertRaises(ValueError):
                common.check_metric_name(name)

    def test_benchmark_file_matches_what_the_runs_emit(self):
        with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            bench = json.load(handle)
        end_to_end = [metric["name"] for metric in bench["end_to_end"]]
        per_layer = [metric["name"] for metric in bench["per_layer"]]
        for name in end_to_end + per_layer:
            common.check_metric_name(name)
        self.assertEqual(len(set(end_to_end + per_layer)), len(end_to_end + per_layer))
        self.assertEqual(set(end_to_end), set(run.END_TO_END))
        emitted = run.layer_metrics({"spans": []}, {})
        emitted["trace.overhead_frac"] = (0.0, "ratio")
        self.assertEqual(set(per_layer), set(emitted))
        units = {metric["name"]: metric["unit"] for metric in bench["per_layer"]}
        self.assertEqual(units, {name: unit for name, (_, unit) in emitted.items()})
        self.assertEqual([w["name"] for w in bench["workloads"]], list(common.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
