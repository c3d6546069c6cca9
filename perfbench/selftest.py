"""Self-tests of the benchmark's own logic (no campaign is run).

Run from anywhere::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import checks
import layers
import run
from tracer import Span, Tracer, layer_self_seconds, self_times, total_seconds

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixtures" / "stdout_seed1.txt"


class ParserTest(unittest.TestCase):
    """Against the captured stdout of ``all --seed 1`` at paper scale."""

    def setUp(self) -> None:
        self.stdout = FIXTURE.read_text()

    def test_parses_every_checked_figure(self) -> None:
        output = checks.parse(self.stdout)
        self.assertEqual(output.fig6_avg, {"a": (2379.7, 2500.0),
                                           "b": (1006.2, 1200.0),
                                           "c": (73.6, 150.0)})
        self.assertEqual(output.fig7_run_avg, {"a": (74, 120), "b": (257, 300),
                                               "c": (782, 900),
                                               "d": (1377, 1600)})
        self.assertEqual(output.bound_rows, (("classic (Eqs. 11/12)", True),
                                             ("interposed (Eq. 16)", True)))
        self.assertEqual(output.victims, (("P2", True), ("HK", True)))
        self.assertEqual(output.deadline_misses, 0)
        self.assertEqual(output.fig6c_delayed, 0)
        self.assertEqual(checks.invariant_failures(output), [])

    def test_paper_rel_error(self) -> None:
        expected = (120.3 / 2500 + 193.8 / 1200 + 76.4 / 150
                    + 46 / 120 + 43 / 300 + 118 / 900 + 223 / 1600) / 7
        self.assertAlmostEqual(
            checks.paper_rel_error(checks.parse(self.stdout)), expected,
            places=12)

    def _broken(self, old: str, new: str) -> "list[str]":
        self.assertEqual(self.stdout.count(old), 1, old)
        return checks.invariant_failures(
            checks.parse(self.stdout.replace(old, new)))

    def test_each_invariant_can_fail(self) -> None:
        cases = {
            "bound": ("8040.0    yes", "8040.0    no"),
            "victim": ("victim HK: holds=True", "victim HK: holds=False"),
            "misses": ("deadline misses                                  0",
                       "deadline misses                                  2"),
            "fig7 order": ("2376         782", "2376         182"),
            "fig6c delayed": ("interposed 57.4% (8609), delayed 0.0% (0)",
                              "interposed 57.4% (8609), delayed 0.0% (1)"),
        }
        for what, (old, new) in cases.items():
            with self.subTest(what):
                self.assertEqual(len(self._broken(old, new)), 1)

    def test_truncated_stdout_is_a_parse_error(self) -> None:
        cut = self.stdout[: self.stdout.index("=== design")]
        with self.assertRaises(checks.ParseError):
            checks.parse(cut)


def _span(span_id, parent, name, start, end, pid=1):
    return Span(span_id, parent, name, start, end, None, pid)


class SelfTimeTest(unittest.TestCase):
    """Synthetic nested spans: root 0-100 holding A 10-50 (with B
    20-30 inside) and C 60-90 (with D 70-75 and E 80-85 inside)."""

    SPANS = [
        _span(1, None, "other.process", 0, 100),
        _span(2, 1, "runner.campaign", 10, 50),
        _span(3, 2, "sim.run", 20, 30),
        _span(4, 1, "cache.load", 60, 90),
        _span(5, 4, "cache.source_fingerprint", 70, 75),
        _span(6, 4, "analysis.response_time", 80, 85),
    ]

    def test_self_time_subtracts_children(self) -> None:
        self.assertEqual(self_times(self.SPANS),
                         {1: 30, 2: 30, 3: 10, 4: 20, 5: 5, 6: 5})

    def test_layer_self_times_sum_to_root(self) -> None:
        per_layer = layer_self_seconds(self.SPANS)
        self.assertEqual(per_layer, {"other": 30e-9, "runner": 30e-9,
                                     "sim": 10e-9, "cache": 25e-9,
                                     "analysis": 5e-9})
        self.assertAlmostEqual(sum(per_layer.values()), 100e-9, places=18)

    def test_outermost_totals_skip_nested_spans(self) -> None:
        self.assertAlmostEqual(
            total_seconds(self.SPANS, "cache.load", "cache.source_fingerprint"),
            30e-9, places=18)

    def test_tracer_nests_by_stack(self) -> None:
        tracer = Tracer()
        outer = tracer.open("runner.campaign")
        inner = tracer.open("sim.run")
        with self.assertRaises(RuntimeError):
            tracer.close(outer)
        tracer.close(inner)
        tracer.close(outer)
        self.assertEqual(inner.parent, outer.span_id)
        self.assertEqual(sum(self_times(tracer.spans).values()),
                         outer.duration_ns)

    def test_compute_partitions_the_traced_wall_time(self) -> None:
        worker = [_span(7 << 32 | 1, None, "runner.subtree", 15, 45, pid=7),
                  _span(7 << 32 | 2, 7 << 32 | 1, "sim.run", 16, 44, pid=7)]
        record = {
            "root_pid": 1,
            "processes": [
                {"pid": 1, "spans": [span.as_row() for span in self.SPANS],
                 "counts": {"sim.events": 4, "experiment.fig6a_ns": 40}},
                {"pid": 7, "spans": [span.as_row() for span in worker],
                 "counts": {"sim.events": 6}},
            ],
            "telemetry": {"busy_seconds": 1.0, "worker_utilization": 0.5,
                          "queue_wait_seconds": 0.0,
                          "max_task_seconds": 1.0},
        }
        values = layers.compute(record, traced_wall_s=110e-9,
                                untraced_wall_s=100e-9,
                                campaign_figures={"first_result_s": 1.0,
                                                  "paper_rel_error": 0.25})
        timeline = sum(values[f"{layer}.self_s"]
                       for layer in layers.TIMELINE_LAYERS
                       if layer != "startup") + values["startup.import_s"]
        # Worker spans add work totals, never campaign-process self time.
        self.assertAlmostEqual(timeline, 100e-9, places=18)
        self.assertAlmostEqual(values["trace.coverage"], 100 / 110)
        self.assertAlmostEqual(values["trace.overhead"], 1.1)
        self.assertEqual(values["sim.events"], 10)
        self.assertAlmostEqual(values["sim.run_s"], 38e-9, places=18)
        self.assertAlmostEqual(values["experiment.fig6a_s"], 40e-9,
                               places=18)
        self.assertEqual(list(values),
                         [metric.name for metric in layers.LAYER_METRICS])


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json names exactly what run.py reports."""

    def test_names_and_units_match(self) -> None:
        with open(HERE.parent / "BENCHMARK.json") as handle:
            bench = json.load(handle)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         [w.name for w in run.WORKLOADS])
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [(m.name, m.unit, m.better) for m in layers.LAYER_METRICS])


if __name__ == "__main__":
    unittest.main()
