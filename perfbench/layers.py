"""Per-layer metrics of the traced run, and what each one should move.

Layers are named after the repository's modules.  ``LAYER_METRICS``
lists every per-layer metric with its unit, which direction is better,
the end-to-end metric it should move and the workload it should move
it on; ``BENCHMARK.json`` carries the same names and units.

Two kinds of figure come out of one trace:

* ``<layer>.self_s`` partitions the campaign process's own timeline:
  self times of that process's spans, so the layers plus
  ``other.self_s`` add up to the traced wall time.  With a process
  pool, time the parent spends waiting for its workers is runner self
  time.
* Everything else (counts, ``sim.run_s``, ``cache.load_s``, ...) sums
  over the campaign process and all its pool workers: the work done,
  wherever it ran.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any

from checks import EXPERIMENTS
from tracer import Span, layer_self_seconds, total_seconds


#: Layers whose self times partition the traced wall time.
TIMELINE_LAYERS = ("startup", "experiments", "workloads", "hypervisor",
                   "sim", "snapshot", "analysis", "cache", "runner", "render",
                   "metrics", "other")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str      #: end-to-end metric it should move
    on: str         #: workload it should move it on


def _m(name, unit, better, moves, on):
    return LayerMetric(name, unit, better, moves, on)


LAYER_METRICS = (
    _m("startup.import_s", "s", "lower", "wall_s, first_result_s",
       "warm_replay (~40% of its wall)"),
    _m("experiments.self_s", "s", "lower", "cpu_s (small)", "paper_serial"),
    _m("workloads.calls", "count", "lower", "cpu_s (small)", "paper_serial"),
    _m("workloads.self_s", "s", "lower", "cpu_s (small)", "paper_serial"),
    _m("workloads.memo_hits", "count", "higher", "cpu_s (small)",
       "paper_serial"),
    _m("hypervisor.builds", "count", "lower", "cpu_s", "paper_serial"),
    _m("hypervisor.build_s", "s", "lower", "cpu_s", "paper_serial"),
    _m("hypervisor.self_s", "s", "lower", "cpu_s", "paper_serial"),
    _m("sim.run_s", "s", "lower", "cpu_s, wall_s (dominant)",
       "paper_serial; nothing on warm_replay"),
    _m("sim.self_s", "s", "lower", "cpu_s, wall_s (dominant)",
       "paper_serial; nothing on warm_replay"),
    _m("sim.events", "count", "lower", "cpu_s, wall_s", "paper_serial"),
    _m("sim.skipped_events", "count", "higher", "cpu_s, wall_s",
       "paper_serial"),
    _m("sim.dispatch_batches", "count", "lower", "cpu_s", "paper_serial"),
    _m("sim.compactions", "count", "lower", "cpu_s", "paper_serial"),
    _m("sim.irqs_delivered", "count", "higher", "none (fixed by the paper "
       "scale)", "all"),
    _m("sim.ns_per_event", "ns", "lower", "cpu_s, wall_s", "paper_serial"),
    _m("snapshot.captures", "count", "lower", "cpu_s", "paper_serial"),
    _m("snapshot.restores", "count", "lower", "cpu_s", "paper_serial"),
    _m("snapshot.forks", "count", "lower", "cpu_s", "paper_serial"),
    _m("snapshot.self_s", "s", "lower", "cpu_s; wall_s, peak_rss_mb",
       "paper_serial; paper_parallel"),
    _m("snapshot.fragments_stored", "count", "lower", "peak_rss_mb",
       "paper_serial; paper_parallel"),
    _m("analysis.self_s", "s", "lower", "cpu_s (~16%)",
       "paper_serial; zero on warm_replay"),
    _m("analysis.busy_windows", "count", "lower", "cpu_s", "paper_serial"),
    _m("analysis.interference_calls", "count", "lower", "cpu_s",
       "paper_serial"),
    _m("analysis.dmin_probes", "count", "lower", "cpu_s", "paper_serial"),
    _m("cache.fingerprint_s", "s", "lower", "wall_s", "warm_replay"),
    _m("cache.digest_s", "s", "lower", "wall_s", "warm_replay"),
    _m("cache.load_s", "s", "lower", "wall_s", "warm_replay"),
    _m("cache.store_s", "s", "lower", "wall_s, cpu_s",
       "paper_serial, paper_parallel"),
    _m("cache.self_s", "s", "lower", "wall_s", "warm_replay (most of it)"),
    _m("cache.hits", "count", "higher", "wall_s", "warm_replay"),
    _m("cache.misses", "count", "lower", "wall_s", "cold workloads"),
    _m("cache.bytes_read", "bytes", "lower", "wall_s", "warm_replay"),
    _m("cache.bytes_written", "bytes", "lower", "wall_s, cpu_s",
       "paper_serial, paper_parallel"),
    _m("runner.pool_starts", "count", "lower", "wall_s, first_result_s",
       "paper_parallel; no change on paper_serial"),
    _m("runner.busy_s", "s", "lower", "wall_s", "paper_parallel"),
    _m("runner.worker_utilization", "ratio", "higher", "wall_s",
       "paper_parallel; no change on paper_serial"),
    _m("runner.queue_wait_s", "s", "lower", "wall_s, first_result_s",
       "paper_parallel"),
    _m("runner.max_task_s", "s", "lower", "wall_s", "paper_parallel"),
    _m("runner.result_bytes", "bytes", "lower", "wall_s",
       "paper_parallel; zero on paper_serial"),
    _m("runner.self_s", "s", "lower", "wall_s, first_result_s",
       "paper_parallel"),
    _m("render.self_s", "s", "lower", "wall_s", "warm_replay"),
    _m("metrics.summarize_s", "s", "lower", "wall_s", "warm_replay"),
    _m("metrics.self_s", "s", "lower", "wall_s", "warm_replay"),
) + tuple(
    _m(f"experiment.{name}_s", "s", "lower", "none (attribution)", "all")
    for name in EXPERIMENTS
) + (
    _m("first_result_s", "s", "lower",
       "none (end-to-end: process start to the first result line)",
       "paper_parallel (pool start), warm_replay (startup)"),
    _m("paper_rel_error", "ratio", "lower",
       "none (model output: a speed-only change leaves it identical)",
       "all"),
    _m("other.self_s", "s", "lower", "none (time in no layer)", "all"),
    _m("trace.wall_s", "s", "lower", "none (traced wall time)", "all"),
    _m("trace.overhead", "ratio", "lower", "none (traced / untraced wall)",
       "all"),
    _m("trace.coverage", "ratio", "higher",
       "none (layer self times plus other over traced wall)", "all"),
)


def load_spans(record: "dict[str, Any]") -> "tuple[list[Span], list[Span]]":
    """(spans of the campaign process, spans of every process)."""
    everything = [Span.from_row(row) for process in record["processes"]
                  for row in process["spans"]]
    root = record["root_pid"]
    return [span for span in everything if span.pid == root], everything


def compute(record: "dict[str, Any]", *, traced_wall_s: float,
            untraced_wall_s: float,
            campaign_figures: "dict[str, float]") -> "dict[str, float]":
    """Every ``LAYER_METRICS`` value from one trace record.

    ``campaign_figures`` (``first_result_s``, ``paper_rel_error``) come
    from the untraced campaigns; they ride with the per-layer figures
    because they vary too much between runs to carry a bound.
    """
    own, everything = load_spans(record)
    counts: "Counter[str]" = Counter()
    for process in record["processes"]:
        counts.update(process["counts"])
    self_s = layer_self_seconds(own)
    telemetry = record["telemetry"]
    sim_run_s = total_seconds(everything, "sim.run")
    values = {
        "startup.import_s": total_seconds(own, "startup.import"),
        "workloads.calls": counts["workloads.calls"],
        "workloads.memo_hits": counts["workloads.memo_hits"],
        "hypervisor.builds": counts["hypervisor.builds"],
        "hypervisor.build_s": total_seconds(
            everything, "hypervisor.build", "hypervisor.start"),
        "sim.run_s": sim_run_s,
        "sim.events": counts["sim.events"],
        "sim.skipped_events": counts["sim.skipped_events"],
        "sim.dispatch_batches": counts["sim.dispatch_batches"],
        "sim.compactions": counts["sim.compactions"],
        "sim.irqs_delivered": counts["sim.irqs_delivered"],
        "sim.ns_per_event": (sim_run_s * 1e9 / counts["sim.events"]
                             if counts["sim.events"] else 0.0),
        "snapshot.captures": counts["snapshot.captures"],
        "snapshot.restores": counts["snapshot.restores"],
        "snapshot.forks": counts["snapshot.forks"],
        "snapshot.fragments_stored": counts["snapshot.fragments_stored"],
        "analysis.busy_windows": counts["analysis.busy_windows"],
        "analysis.interference_calls": counts["analysis.interference_calls"],
        "analysis.dmin_probes": counts["analysis.dmin_probes"],
        "cache.fingerprint_s": total_seconds(
            everything, "cache.fingerprint", "cache.source_fingerprint"),
        "cache.digest_s": total_seconds(everything, "cache.digest"),
        "cache.load_s": total_seconds(everything, "cache.load"),
        "cache.store_s": total_seconds(everything, "cache.store"),
        "cache.hits": counts["cache.hits"],
        "cache.misses": counts["cache.misses"],
        "cache.bytes_read": counts["cache.bytes_read"],
        "cache.bytes_written": counts["cache.bytes_written"],
        "runner.pool_starts": counts["runner.pool_starts"],
        "runner.busy_s": telemetry["busy_seconds"],
        "runner.worker_utilization": telemetry["worker_utilization"],
        "runner.queue_wait_s": telemetry["queue_wait_seconds"],
        "runner.max_task_s": telemetry["max_task_seconds"],
        "runner.result_bytes": counts["runner.result_bytes"],
        "metrics.summarize_s": total_seconds(everything, "metrics.summarize"),
        **campaign_figures,
        "trace.wall_s": traced_wall_s,
        "trace.overhead": traced_wall_s / untraced_wall_s,
        "trace.coverage": sum(self_s.values()) / traced_wall_s,
    }
    for layer in TIMELINE_LAYERS:
        if layer != "startup":
            values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for name in EXPERIMENTS:
        values[f"experiment.{name}_s"] = counts[f"experiment.{name}_ns"] / 1e9
    names = [metric.name for metric in LAYER_METRICS]
    unknown = set(values) - set(names)
    if unknown:
        raise KeyError(f"computed metrics missing from LAYER_METRICS: "
                       f"{sorted(unknown)}")
    return {name: values[name] for name in names}
