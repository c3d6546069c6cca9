"""Chrome trace-event (Perfetto) JSON export.

Converts a simulation run — the typed :class:`~repro.sim.trace.TraceRecorder`
stream plus the optional ``record_cpu_segments`` occupancy segments —
into the Chrome trace-event JSON format, loadable in ``ui.perfetto.dev``
or ``chrome://tracing``.

Track layout
------------
* **pid 1 — "Simulation CPU"**: one thread track per timeline lane
  (the same :func:`repro.metrics.timeline.lane_of` mapping the ASCII
  Gantt renderer uses — ``"RT"``, ``"RT BH"``, ``"HV"``, ...), each CPU
  segment a ``ph="X"`` complete event spanning its charged cycles.
* **pid 2 — "Hypervisor trace"**: one thread track per event family
  (IRQ, Monitor, Top handlers, ...), with **exactly one ``ph="i"``
  instant per recorded TraceEvent** — so per-kind instant counts equal
  ``TraceRecorder.of_kind(...)`` counts, which the tests pin.
* **pid 3 — "Campaign"**: one thread track per worker process, each
  executed campaign task a ``ph="X"`` span over its wall time.
* **pid 4 — "Engine"**: one "Idle-skip spans" thread; each quiescent
  gap the idle-skip engine crossed analytically (see
  ``SimulationEngine.skip_span_log``) is a ``ph="X"`` span annotated
  with the number of events elided — making the fast-forwarded
  stretches visible next to the semantic trace instants they bracket.

Timestamps are microseconds, as the format requires: simulation cycles
go through :meth:`~repro.sim.clock.Clock.cycles_to_us` when a clock is
supplied (raw cycles are used as µs otherwise — relative placement is
what matters for inspection), and campaign spans use wall-clock
offsets from the campaign start.  Events are emitted in recorder /
segment / task order, so timestamps are monotone within every track.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.io import AtomicFile
from repro.metrics.timeline import lane_of
from repro.sim.trace import TraceKind, TraceRecorder

#: Identifies traces written by :func:`write_chrome_trace`.
TRACE_FORMAT = "repro-chrome-trace-v1"

#: Process ids of the four track groups.
PID_CPU = 1
PID_TRACE = 2
PID_CAMPAIGN = 3
PID_ENGINE = 4

#: TraceKind -> thread-track family under ``PID_TRACE``.  Every kind
#: maps somewhere (unknown/custom kinds fall through to "Other"), so
#: the exporter can never silently drop a recorded event.
KIND_FAMILIES: "dict[TraceKind, str]" = {
    TraceKind.IRQ_RAISED: "IRQ",
    TraceKind.IRQ_COALESCED: "IRQ",
    TraceKind.MONITOR_ACCEPT: "Monitor",
    TraceKind.MONITOR_DENY: "Monitor",
    TraceKind.TOP_HANDLER_START: "Top handlers",
    TraceKind.TOP_HANDLER_END: "Top handlers",
    TraceKind.BOTTOM_HANDLER_START: "Bottom handlers",
    TraceKind.BOTTOM_HANDLER_END: "Bottom handlers",
    TraceKind.BOTTOM_HANDLER_PREEMPTED: "Bottom handlers",
    TraceKind.BOTTOM_HANDLER_BUDGET_EXHAUSTED: "Bottom handlers",
    TraceKind.INTERPOSE_START: "Interpose",
    TraceKind.INTERPOSE_END: "Interpose",
    TraceKind.SLOT_SWITCH: "Scheduler",
    TraceKind.CONTEXT_SWITCH: "Scheduler",
    TraceKind.TASK_RELEASE: "Guest tasks",
    TraceKind.TASK_START: "Guest tasks",
    TraceKind.TASK_END: "Guest tasks",
    TraceKind.DEADLINE_MISS: "Guest tasks",
    TraceKind.IDLE: "Guest tasks",
    TraceKind.IPC_SEND: "IPC",
    TraceKind.IPC_DELIVER: "IPC",
    TraceKind.CUSTOM: "Other",
}

#: Stable display order of the trace-family thread tracks.
FAMILY_ORDER = ("IRQ", "Monitor", "Top handlers", "Bottom handlers",
                "Interpose", "Scheduler", "Guest tasks", "IPC", "Other")


def _json_safe(value: Any) -> Any:
    """Coerce a TraceEvent data value into something JSON can carry."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _json_safe(item) for key, item in value.items()}
    return repr(value)


def _metadata(pid: int, name: str, tid: int = 0,
              thread_name: Optional[str] = None) -> "list[dict]":
    events = []
    if thread_name is None:
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name", "args": {"name": name}})
    else:
        events.append({"ph": "M", "pid": pid, "tid": tid,
                       "name": "thread_name", "args": {"name": thread_name}})
    return events


def chrome_trace_events(
    trace: Optional[TraceRecorder] = None,
    *,
    clock: Any = None,
    cpu_segments: Optional[Iterable[Any]] = None,
    campaign: Any = None,
    engine: Any = None,
) -> "list[dict]":
    """Build the flat ``traceEvents`` list for one run.

    Parameters
    ----------
    trace:
        Recorder whose events become per-family instants (optional).
    clock:
        A :class:`~repro.sim.clock.Clock`; when given, cycle timestamps
        are converted to microseconds.
    cpu_segments:
        ``Cpu.segments`` from a run with ``record_cpu_segments=True``;
        rendered as complete events on per-lane tracks.
    campaign:
        A :class:`~repro.experiments.runner.CampaignTelemetry`;
        executed tasks become spans on per-worker tracks.
    engine:
        A :class:`~repro.sim.engine.SimulationEngine`; its recorded
        idle-skip spans become complete events on the "Engine" track
        (omitted entirely when no span was recorded).
    """
    to_us = (clock.cycles_to_us if clock is not None
             else lambda cycles: cycles)
    events: "list[dict]" = []

    if cpu_segments is not None:
        segments = list(cpu_segments)
        lanes: "dict[str, int]" = {}
        for segment in segments:
            lane = lane_of(segment.category)
            if lane not in lanes:
                lanes[lane] = len(lanes) + 1
        events.extend(_metadata(PID_CPU, "Simulation CPU"))
        for lane, tid in sorted(lanes.items(), key=lambda item: item[1]):
            events.extend(_metadata(PID_CPU, "", tid, lane))
        for segment in segments:
            start_us = to_us(segment.start)
            events.append({
                "ph": "X",
                "pid": PID_CPU,
                "tid": lanes[lane_of(segment.category)],
                "ts": start_us,
                "dur": to_us(segment.end) - start_us,
                "name": segment.label or segment.category,
                "cat": segment.category,
            })

    if trace is not None:
        recorded = trace.events
        families_used: "list[str]" = []
        for event in recorded:
            family = KIND_FAMILIES.get(event.kind, "Other")
            if family not in families_used:
                families_used.append(family)
        family_tids = {
            family: index + 1
            for index, family in enumerate(
                [f for f in FAMILY_ORDER if f in families_used]
            )
        }
        events.extend(_metadata(PID_TRACE, "Hypervisor trace"))
        for family, tid in sorted(family_tids.items(),
                                  key=lambda item: item[1]):
            events.extend(_metadata(PID_TRACE, "", tid, family))
        for event in recorded:
            family = KIND_FAMILIES.get(event.kind, "Other")
            events.append({
                "ph": "i",
                "s": "t",
                "pid": PID_TRACE,
                "tid": family_tids[family],
                "ts": to_us(event.time),
                "name": event.kind.value,
                "cat": family,
                "args": {key: _json_safe(value)
                         for key, value in event.data.items()},
            })

    spans = getattr(engine, "skip_span_log", None) if engine is not None else None
    if spans:
        events.extend(_metadata(PID_ENGINE, "Engine"))
        events.extend(_metadata(PID_ENGINE, "", 1, "Idle-skip spans"))
        for start, end, elided in spans:
            start_us = to_us(start)
            events.append({
                "ph": "X",
                "pid": PID_ENGINE,
                "tid": 1,
                "ts": start_us,
                "dur": to_us(end) - start_us,
                "name": f"idle-skip ({elided} events)",
                "cat": "idle_skip",
                "args": {"events_elided": elided,
                         "cycles": end - start},
            })

    if campaign is not None:
        workers: "dict[int, int]" = {}
        for task in campaign.tasks:
            if task.worker_pid not in workers:
                workers[task.worker_pid] = len(workers) + 1
        events.extend(_metadata(PID_CAMPAIGN, "Campaign"))
        for pid, tid in sorted(workers.items(), key=lambda item: item[1]):
            events.extend(_metadata(PID_CAMPAIGN, "", tid, f"worker {pid}"))
        for task in campaign.tasks:
            events.append({
                "ph": "X",
                "pid": PID_CAMPAIGN,
                "tid": workers[task.worker_pid],
                "ts": round(task.started_offset_seconds * 1e6, 3),
                "dur": round(task.wall_seconds * 1e6, 3),
                "name": f"{task.experiment}/{task.kind}[{task.index}]",
                "cat": "campaign_task",
                "args": {
                    "experiment": task.experiment,
                    "kind": task.kind,
                    "cached": task.cached,
                    "queue_wait_seconds": round(task.queue_wait_seconds, 6),
                },
            })

    return events


def write_chrome_trace(path: "str | os.PathLike[str]",
                       trace: Optional[TraceRecorder] = None,
                       *,
                       clock: Any = None,
                       cpu_segments: Optional[Iterable[Any]] = None,
                       campaign: Any = None,
                       engine: Any = None,
                       metadata: Optional[Mapping[str, Any]] = None) -> int:
    """Write a Chrome trace JSON file; returns the event count.

    The file is the standard ``{"traceEvents": [...]}`` object form
    with run metadata under ``otherData``, written through
    :class:`repro.io.AtomicFile` so a crashed export never leaves a
    truncated, unloadable trace behind.
    """
    events = chrome_trace_events(trace, clock=clock,
                                 cpu_segments=cpu_segments,
                                 campaign=campaign,
                                 engine=engine)
    other: "dict[str, Any]" = {"format": TRACE_FORMAT}
    if metadata:
        other.update({str(key): _json_safe(value)
                      for key, value in metadata.items()})
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    with AtomicFile(path, "w") as handle:
        json.dump(document, handle, separators=(",", ":"))
        handle.write("\n")
    return len(events)


def load_chrome_trace(path: "str | os.PathLike[str]") -> "dict[str, Any]":
    """Load and validate a trace written by :func:`write_chrome_trace`.

    Checks the object form, the per-event required fields, and that
    timestamps are monotone non-decreasing within every ``(pid, tid)``
    track — the invariant the exporter promises.  Returns the parsed
    document; raises ``ValueError`` on any violation.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError(f"{path}: not an object-form Chrome trace")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError(f"{path}: traceEvents is not a list")
    last_ts: "dict[tuple[int, int], float]" = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict) or "ph" not in event:
            raise ValueError(f"{path}: event #{index} lacks a phase")
        if event["ph"] == "M":
            continue
        for required in ("pid", "tid", "ts", "name"):
            if required not in event:
                raise ValueError(
                    f"{path}: event #{index} lacks {required!r}"
                )
        track = (event["pid"], event["tid"])
        ts = float(event["ts"])
        if track in last_ts and ts < last_ts[track]:
            raise ValueError(
                f"{path}: event #{index} goes back in time on track "
                f"{track} ({ts} < {last_ts[track]})"
            )
        last_ts[track] = ts
    return document
