"""Parallel campaign runner for the paper-reproduction experiments.

Every experiment campaign decomposes into *tasks* that are independent
by construction — each regenerates its own inputs from a
deterministically derived seed (e.g. ``seed + load_index`` for the
per-load Fig. 6 cells) instead of sharing mutable state:

========== =====================================================
campaign   task decomposition
========== =====================================================
fig6a/b/c  one task per interrupt load (3 each)
fig7       one task per bound case a–d (4)
tab62      one task per interrupt load (3)
validation classic leg + monitored leg (2)
ablation   boost / throttle / depth (3)
sweep      one task per cycle-scale (4) + one per d_min multiplier (5)
design     single task (1)
========== =====================================================

Because the task functions derive their seeds exactly as the serial
loops do, and the merge functions consume task results in the serial
order, ``run_campaign(..., jobs=N)`` is **byte-identical** to
``jobs=1`` for every N: parallelism only changes wall-clock time.

No task depends on another's result: a fig7 case replays its own
learning phase, a sweep point builds its own world.  One call plans
every selected experiment into one flat task list, and one executor
(:func:`_run_tasks`) probes the cache once per task and runs every
miss as an independent work item, in-process or over one pool for the
whole call.  Results resolve in task order, so each experiment is
released — its store artifacts written in task order, its merge run,
its result handed on — as soon as its last task resolves, and its
task results are dropped before later experiments finish.

Workload generation inside the workers is cheap and deterministic
(:mod:`repro.workloads` memoizes interarrival arrays and traces), so
tasks ship only small picklable configs in and
:class:`~repro.experiments.common.ScenarioSummary`-style picklable
results out; live :class:`~repro.hypervisor.hypervisor.Hypervisor`
objects (which hold closures) never cross process boundaries — any
audit that needs one (interference ledgers, context-switch counters)
runs inside the task.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import sys
import tempfile
import time
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

try:
    import fcntl
except ImportError:                         # non-POSIX: no advisory locks
    fcntl = None

from repro.experiments.ablation import (
    run_boost_ablation,
    run_depth_ablation,
    run_throttle_ablation,
)
from repro.experiments.cache import ResultCache, task_fingerprint
from repro.experiments.design import run_design
from repro.experiments.fig6 import Fig6Config, merge_fig6_loads, run_fig6_load
from repro.experiments.fig7 import FIG7_CASES, Fig7Config, run_fig7_case
from repro.experiments.overhead import merge_overhead, run_overhead_load
from repro.experiments.scale import ExperimentScale
from repro.experiments.sweep import run_cycle_sweep_point, run_dmin_sweep_point
from repro.experiments.validation import (
    merge_validation,
    run_validation_classic,
    run_validation_monitored,
)
from repro.io import atomic_write, canonical_digest, quarantine
from repro.workloads.automotive import AutomotiveTraceConfig

#: Default interrupt loads shared by the fig6 and tab62 campaigns.
DEFAULT_LOADS = (0.01, 0.05, 0.10)


@dataclass(frozen=True)
class CampaignTask:
    """One picklable, self-contained unit of campaign work."""

    experiment: str                     #: campaign id ("fig6a", "sweep", ...)
    kind: str                           #: dispatch key into TASK_FUNCTIONS
    kwargs: "dict[str, Any]" = field(default_factory=dict)

    def __repr__(self) -> str:          # compact pool-debugging aid
        return f"CampaignTask({self.experiment}:{self.kind})"


#: Task dispatch registry.  Entries must be top-level functions so that
#: worker processes can unpickle the reference regardless of the
#: multiprocessing start method.
TASK_FUNCTIONS: "dict[str, Callable[..., Any]]" = {
    "fig6-load": run_fig6_load,
    "fig7-case": run_fig7_case,
    "overhead-load": run_overhead_load,
    "validation-classic": run_validation_classic,
    "validation-monitored": run_validation_monitored,
    "ablation-boost": run_boost_ablation,
    "ablation-throttle": run_throttle_ablation,
    "ablation-depth": run_depth_ablation,
    "sweep-cycle-point": run_cycle_sweep_point,
    "sweep-dmin-point": run_dmin_sweep_point,
    "design": run_design,
}


def execute_task(task: CampaignTask) -> Any:
    """Run one campaign task (in-process or inside a pool worker)."""
    return TASK_FUNCTIONS[task.kind](**task.kwargs)


@dataclass
class TaskTelemetry:
    """Execution record of one campaign task (for ``--metrics-json``)."""

    experiment: str
    kind: str
    index: int                      #: position in the campaign task list
    cached: bool                    #: replayed from the result cache
    wall_seconds: float             #: compute time (0.0 for cache hits)
    #: time a free worker sat idle before picking the task up (0.0
    #: in-process and for cache hits)
    queue_wait_seconds: float
    started_offset_seconds: float   #: pickup time relative to campaign start
    worker_pid: int


@dataclass
class CampaignTelemetry:
    """Aggregated runner telemetry for one ``run_campaign`` call.

    Filled in-place when passed to :func:`run_campaign`; purely
    observational — recording it changes neither the execution path
    nor the order in which merges consume results.
    """

    jobs: int = 1
    wall_seconds: float = 0.0
    tasks: "list[TaskTelemetry]" = field(default_factory=list)
    #: monotonic instant of the first run_campaign call sharing this
    #: object; all started_offset_seconds are measured against it, so
    #: per-worker task timelines stay monotone when several calls feed
    #: one object (one trace track per worker pid).
    epoch: "float | None" = None

    @property
    def busy_seconds(self) -> float:
        """Summed compute time of executed (non-cached) tasks."""
        return sum(task.wall_seconds for task in self.tasks
                   if not task.cached)

    @property
    def worker_utilization(self) -> float:
        """``busy / (wall * jobs)`` — 1.0 means no worker ever idled."""
        if self.wall_seconds <= 0.0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.wall_seconds * self.jobs))

    def as_dict(self) -> "dict[str, Any]":
        computed = [task for task in self.tasks if not task.cached]
        waits = [task.queue_wait_seconds for task in computed]
        return {
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 4),
            "busy_seconds": round(self.busy_seconds, 4),
            "worker_utilization": round(self.worker_utilization, 4),
            "tasks_computed": len(computed),
            "tasks_cached": len(self.tasks) - len(computed),
            "max_task_seconds": round(
                max((task.wall_seconds for task in computed), default=0.0), 4
            ),
            "mean_queue_wait_seconds": round(
                sum(waits) / len(waits), 4
            ) if waits else 0.0,
        }


def _execute_item(item: "tuple[CampaignTask, float]",
                  ) -> "tuple[Any, float, float, int]":
    """Run one work item: ``(task, epoch) -> (result, pickup, elapsed, pid)``.

    ``pickup`` is the start instant relative to ``epoch`` (the
    campaign epoch), ``elapsed`` the compute time.
    ``time.monotonic`` is a system-wide clock on the supported
    platforms, so offsets against the parent's epoch are meaningful
    inside fork/spawn workers.
    """
    task, epoch = item
    pickup = time.monotonic() - epoch
    started = time.perf_counter()
    result = execute_task(task)
    return result, pickup, time.perf_counter() - started, os.getpid()


_execute_subtree = _execute_item  # name perfbench/traced_campaign.py wraps


def plan_experiment(name: str, scale: ExperimentScale, seed: int,
                    ) -> "tuple[list[CampaignTask], Callable[[list], Any]]":
    """Decompose one experiment into tasks plus a merge function.

    The merge function runs in the parent process and consumes the task
    results *in task order* — the same order the serial loops produce —
    so merged results do not depend on worker scheduling.
    """
    if name.startswith("fig6") and name[-1] in ("a", "b", "c"):
        scenario = name[-1]
        config = Fig6Config(irqs_per_load=scale.fig6_irqs_per_load, seed=seed)
        tasks = [
            CampaignTask(name, "fig6-load",
                         {"scenario": scenario, "config": config,
                          "load_index": index})
            for index in range(len(config.loads))
        ]
        return tasks, lambda results: merge_fig6_loads(scenario, config,
                                                       results)
    if name == "fig7":
        config = Fig7Config(trace=AutomotiveTraceConfig(
            activation_count=scale.fig7_activations, seed=seed,
        ))
        labels = tuple(FIG7_CASES)
        tasks = [
            CampaignTask(name, "fig7-case", {"label": label, "config": config})
            for label in labels
        ]
        return tasks, lambda results: dict(zip(labels, results))
    if name == "tab62":
        tasks = [
            CampaignTask(name, "overhead-load",
                         {"load_index": index, "loads": DEFAULT_LOADS,
                          "irqs_per_load": scale.tab62_irqs_per_load,
                          "seed": seed})
            for index in range(len(DEFAULT_LOADS))
        ]
        return tasks, lambda results: merge_overhead(list(results))
    if name == "validation":
        tasks = [
            CampaignTask(name, "validation-classic",
                         {"irq_count": scale.validation_irqs, "seed": seed}),
            CampaignTask(name, "validation-monitored",
                         {"irq_count": scale.validation_irqs, "seed": seed}),
        ]

        def merge_validation_results(results: list) -> Any:
            classic = results[0]
            monitored, reports = results[1]
            return merge_validation(classic, monitored, reports)

        return tasks, merge_validation_results
    if name == "ablation":
        tasks = [
            CampaignTask(name, "ablation-boost",
                         {"irq_count": scale.ablation_irqs, "seed": seed}),
            CampaignTask(name, "ablation-throttle",
                         {"irq_count": scale.ablation_irqs, "seed": seed}),
            CampaignTask(name, "ablation-depth",
                         {"activation_count": scale.ablation_depth_activations}),
        ]
        return tasks, tuple
    if name == "sweep":
        cycle_scales = (0.5, 1.0, 2.0, 4.0)
        multipliers = (1.0, 2.0, 4.0, 8.0, 16.0)
        cycle_tasks = [
            CampaignTask(name, "sweep-cycle-point",
                         {"scale": value, "irq_count": scale.sweep_irqs,
                          "seed": seed})
            for value in cycle_scales
        ]
        split = len(cycle_scales)
        tasks = cycle_tasks + [
            CampaignTask(name, "sweep-dmin-point",
                         {"multiplier": value, "irq_count": scale.sweep_irqs,
                          "seed": seed})
            for value in multipliers
        ]
        return tasks, lambda results: (results[:split], results[split:])
    if name == "design":
        tasks = [CampaignTask(name, "design",
                              {"irq_count": scale.design_irqs})]
        return tasks, lambda results: results[0]
    raise ValueError(f"unknown experiment {name!r}")


def plan_campaign(names: Sequence[str], scale: ExperimentScale, seed: int,
                  ) -> "tuple[list[CampaignTask], dict[str, Callable]]":
    """Flatten the selected experiments into one task list."""
    tasks: "list[CampaignTask]" = []
    merges: "dict[str, Callable]" = {}
    for name in names:
        experiment_tasks, merges[name] = plan_experiment(name, scale, seed)
        tasks.extend(experiment_tasks)
    return tasks, merges


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork is cheapest and inherits the imported modules; fall back to
    # the platform default (spawn) where fork is unavailable.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _record_task(telemetry: "CampaignTelemetry | None",
                 progress: "Callable[[int, int, CampaignTask], None] | None",
                 task: CampaignTask, index: int, done: int, total: int, *,
                 cached: bool, wall: float, wait: float, offset: float,
                 pid: int) -> None:
    if telemetry is not None:
        telemetry.tasks.append(TaskTelemetry(
            experiment=task.experiment, kind=task.kind, index=index,
            cached=cached, wall_seconds=wall, queue_wait_seconds=wait,
            started_offset_seconds=offset, worker_pid=pid,
        ))
    if progress is not None:
        progress(done, total, task)


def _run_tasks(tasks: "list[CampaignTask]", jobs: int,
               cache: "ResultCache | None" = None,
               telemetry: "CampaignTelemetry | None" = None,
               progress: "Callable[[int, int, CampaignTask], None] | None"
               = None,
               epoch: "float | None" = None,
               ) -> "Iterator[tuple[int, Any]]":
    """Execute independent tasks; yield ``(index, result)`` as each resolves.

    The parent probes the cache once per task, in task order, and
    yields each hit as soon as it loads, so a consumer can release
    leading experiments before any miss runs.  It then runs the misses
    through :func:`_execute_item`: in-process when ``jobs <= 1`` or
    there is a single miss, otherwise over ordered ``imap`` on one pool
    of at most ``jobs`` workers; misses are yielded in task order
    either way.  A fully warm run starts no pool at all.  Close the
    generator (or exhaust it) to shut the pool down.

    Started offsets are measured against ``epoch`` (default: this
    call's start).  A task's queue wait is the time a free worker sat
    idle before picking it up: ``0.0`` in-process, and in the pool the
    pickup minus the later of the submission and the end of the same
    worker's previous task.
    """
    base = time.monotonic() if epoch is None else epoch
    total = len(tasks)
    done = 0

    def record(index: int, *, cached: bool, wall: float, wait: float,
               pickup: float, pid: int) -> None:
        nonlocal done
        done += 1
        _record_task(telemetry, progress, tasks[index], index, done, total,
                     cached=cached, wall=wall, wait=wait, offset=pickup,
                     pid=pid)

    keys: "dict[int, str]" = {}
    misses: "list[int]" = []
    for index, task in enumerate(tasks):
        if cache is not None:
            keys[index] = task_fingerprint(task)
            entry = cache.load(keys[index])
            if entry is not None:
                record(index, cached=True, wall=0.0, wait=0.0,
                       pickup=time.monotonic() - base, pid=os.getpid())
                yield index, entry.result
                continue
        misses.append(index)
    items = [(tasks[index], base) for index in misses]
    pool = None
    if jobs <= 1 or len(items) <= 1:
        outcomes = map(_execute_item, items)
    else:
        pool = _pool_context().Pool(min(jobs, len(items)))
        submitted = time.monotonic() - base
        outcomes = pool.imap(_execute_item, items, chunksize=1)
    # worker pid -> end of its previous task (pool tasks reach the
    # parent in task order, which is each worker's pickup order)
    free_since: "dict[int, float]" = {}
    try:
        for index, (result, pickup, elapsed, pid) in zip(misses, outcomes):
            if cache is not None:
                cache.store(keys[index], tasks[index], result, elapsed)
            wait = 0.0
            if pool is not None:
                wait = max(0.0, pickup - free_since.get(pid, submitted))
                free_since[pid] = pickup + elapsed
            record(index, cached=False, wall=elapsed, wait=wait,
                   pickup=pickup, pid=pid)
            yield index, result
    finally:
        if pool is not None:
            pool.terminate()


def run_campaign(names: Sequence[str], scale: ExperimentScale,
                 seed: int = 1, jobs: "int | None" = None,
                 cache: "ResultCache | None" = None,
                 telemetry: "CampaignTelemetry | None" = None,
                 progress: "Callable[[int, int, CampaignTask], None] | None"
                 = None,
                 store: "Any | None" = None,
                 on_experiment: "Callable[[str, Any], None] | None" = None,
                 ) -> "dict[str, Any]":
    """Run the selected experiment campaigns, optionally in parallel.

    Every selected experiment's tasks form one plan.  ``jobs=1``
    executes every task in-process, exactly like the original serial
    loops.  ``jobs=N`` fans the tasks out over one process pool of at
    most ``N`` workers, started once per call, with ``chunksize=1``
    (tasks have very uneven durations, so greedy scheduling matters).
    Either way the merge consumes results in the fixed task order, so
    the returned results — and anything rendered from them — are
    byte-identical.

    Results resolve in task order, and each experiment is *released*,
    in ``names`` order, as soon as its last task resolves: its store
    artifacts are written, its merge runs, and the merged result goes
    to ``on_experiment(name, merged)`` when that callback is given
    (and is then left out of the returned dict) or into the returned
    dict otherwise.  The released task results are dropped, so with a
    callback the parent holds only the results of experiments still in
    flight.

    With a :class:`~repro.experiments.cache.ResultCache`, tasks whose
    content fingerprint matches a stored entry replay the pickled
    result instead of simulating; only misses run (and are stored).
    Results remain byte-identical to an uncached run.

    ``telemetry`` (a :class:`CampaignTelemetry`, filled in-place) and
    ``progress`` (called as ``progress(done, total, task)`` after each
    task completes, in the parent process) observe per-task timing
    without changing the ordered-results contract.

    ``store`` is any object exposing ``write_task(task, result,
    index)`` — in practice a
    :class:`repro.store.capture.CampaignStoreWriter` — called once per
    task in the parent process as its experiment is released, in task
    order, with ``index`` the task's position within its experiment.
    The runner never imports the store package; capture is
    observational and results pass through untouched, so merged
    results stay byte-identical with or without it.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    started = time.monotonic()
    tasks, merges = plan_campaign(names, scale, seed)
    epoch: "float | None" = None
    if telemetry is not None:
        telemetry.jobs = jobs
        if telemetry.epoch is None:
            telemetry.epoch = started
        epoch = telemetry.epoch
    sizes = Counter(task.experiment for task in tasks)
    pending = Counter(sizes)
    held: "dict[int, Any]" = {}
    merged: "dict[str, Any]" = {}

    def release(name: str, first: int) -> None:
        own = [held.pop(index)
               for index in range(first, first + sizes[name])]
        if store is not None:
            for offset, result in enumerate(own):
                store.write_task(tasks[first + offset], result, offset)
        if on_experiment is None:
            merged[name] = merges[name](own)
        else:
            on_experiment(name, merges[name](own))

    released = 0        # experiments released so far, in names order
    first = 0           # index of the next experiment's first task
    with closing(_run_tasks(tasks, jobs, cache, telemetry, progress,
                            epoch)) as resolved:
        for index, result in resolved:
            held[index] = result
            pending[tasks[index].experiment] -= 1
            while released < len(names) and pending[names[released]] == 0:
                release(names[released], first)
                first += sizes[names[released]]
                released += 1
    if telemetry is not None:
        telemetry.wall_seconds += time.monotonic() - started
    return merged


def write_bench_json(path: "str | os.PathLike[str]", *,
                     scale_name: str, jobs: int,
                     experiment_seconds: "Mapping[str, float]",
                     engine: "Any | None" = None,
                     engine_idle_ab: "Any | None" = None,
                     engine_fork_ab: "Any | None" = None,
                     analysis: "Any | None" = None,
                     cache: "Any | None" = None,
                     telemetry: "CampaignTelemetry | None" = None,
                     store_ab: "Any | None" = None) -> dict:
    """Append one run record to a ``BENCH_experiments.json`` history.

    The file holds ``{"runs": [...], "sha256": ...}`` with one record
    per campaign run and a trailer checksum
    (:func:`repro.io.canonical_digest` of the runs list); each record
    holds a ``host`` block (python version, cpu count, platform — so
    cross-machine history stays interpretable), per-experiment
    wall-clock seconds plus (when measured) the
    engine microbenchmark's events/sec (``engine``, annotated with the
    event queue it ran on),
    the idle-skip race on an idle-dominated scenario
    (``engine_idle_ab``: an
    :class:`~repro.sim.benchmark.IdleABResult` — skip vs tick events/s,
    speedup, spans/events/cycles elided),
    the fork-tree race on a deep fig7-style scenario tree
    (``engine_fork_ab``: a
    :class:`~repro.sim.benchmark.ForkABResult` — layered vs full-copy
    forks/s, speedup, retained bytes per leg and their ratio),
    the run-artifact store's write-overhead race (``store_ab``: a
    :class:`~repro.store.benchmark.StoreABResult` — campaign wall time
    with vs without per-task artifact capture, plus the capture
    volume),
    the analysis memoization A/B (``analysis``: an
    :class:`~repro.analysis.benchmark.AnalysisBenchmarkResult`) and
    the campaign's cache statistics (``cache``: a
    :class:`~repro.experiments.cache.CacheStats` or a plain mapping) —
    consecutive records of the same campaign show the cold→warm
    trajectory.  Appending instead of overwriting keeps a regression
    trail the perf harness can diff.

    The read-modify-write append is safe against concurrent campaigns:
    the whole cycle runs under an advisory lock (where the platform
    supports it) and the updated history lands through
    :func:`repro.io.atomic_write`, so a reader never sees a torn file
    and two writers cannot drop each other's records.  A corrupt
    history is moved aside, never overwritten
    (:func:`_read_bench_runs`).  The lock side-file lives under the
    system temp directory, keyed by a hash of the resolved target path
    — not next to the history file — so benchmark runs never litter the
    checkout with ``.lock`` artifacts.
    """
    record: "dict[str, Any]" = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()) + "Z",
        "scale": scale_name,
        "jobs": jobs,
        # Host context: absolute events/s values are only comparable
        # within one machine, so cross-machine history needs to say
        # where each record came from.
        "host": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "experiment_wall_seconds": {
            name: round(seconds, 3)
            for name, seconds in experiment_seconds.items()
        },
        "total_wall_seconds": round(sum(experiment_seconds.values()), 3),
    }
    if engine is not None:
        from repro.sim.queue import resolve_backend_name

        record["engine"] = {
            "backend": resolve_backend_name(None),
            "events_per_second": round(engine.events_per_second, 1),
            "chain_events_per_second": round(
                engine.chain_events_per_second, 1),
            "pool_events_per_second": round(engine.pool_events_per_second, 1),
            "events_executed": engine.events_executed,
            "cancelled_events": engine.cancelled_events,
            "elapsed_seconds": round(engine.elapsed_seconds, 4),
        }
    if engine_idle_ab is not None:
        record["engine_idle_ab"] = {
            "speedup": round(engine_idle_ab.speedup, 2),
            "skip_spans": engine_idle_ab.skip_spans,
            "skipped_events": engine_idle_ab.skipped_events,
            "skipped_cycles": engine_idle_ab.skipped_cycles,
            "events_per_second": {
                name: round(result.events_per_second, 1)
                for name, result in sorted(engine_idle_ab.results.items())
            },
        }
    if engine_fork_ab is not None:
        record["engine_fork_ab"] = {
            "speedup": round(engine_fork_ab.speedup, 2),
            "memory_ratio": round(engine_fork_ab.memory_ratio, 2),
            "branches": engine_fork_ab.branches,
            "nodes": engine_fork_ab.nodes,
            "leaf_digest": engine_fork_ab.leaf_digest,
            "forks_per_second": {
                name: round(result.forks_per_second, 1)
                for name, result in sorted(engine_fork_ab.results.items())
            },
            "retained_bytes": {
                name: result.retained_bytes
                for name, result in sorted(engine_fork_ab.results.items())
            },
        }
    if store_ab is not None:
        stats = store_ab.write_stats
        record["store_ab"] = {
            "overhead": round(store_ab.overhead, 4),
            "write_ratio": round(store_ab.write_ratio, 4),
            "plain_seconds": round(store_ab.plain_seconds, 4),
            "store_seconds": round(store_ab.store_seconds, 4),
            "artifacts": stats.artifacts_written,
            "rows": stats.rows_written,
            "bytes_written": stats.bytes_written,
            "write_seconds": round(stats.write_seconds, 4),
        }
    if analysis is not None:
        record["analysis"] = {
            "cold_seconds": round(analysis.cold_seconds, 4),
            "memoized_seconds": round(analysis.memoized_seconds, 4),
            "speedup": round(analysis.speedup, 2),
            "bounds_per_round": analysis.bounds_per_round,
            "identical_bounds": analysis.identical,
        }
    if cache is not None:
        record["cache"] = (dict(cache) if isinstance(cache, Mapping)
                           else cache.as_dict())
    if telemetry is not None:
        record["campaign"] = telemetry.as_dict()

    target = Path(path)
    # Key the advisory lock by the resolved target so every writer to
    # the same history file contends on the same side-file, wherever
    # they were launched from.
    lock_key = hashlib.sha256(
        str(target.resolve()).encode("utf-8")).hexdigest()[:16]
    lock_path = Path(tempfile.gettempdir()) / f"repro-bench-{lock_key}.lock"
    with open(lock_path, "a+") as lock_file:
        if fcntl is not None:
            fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX)
        try:
            runs = _read_bench_runs(target)
            runs.append(record)
            atomic_write(target, json.dumps(
                {"runs": runs, "sha256": canonical_digest(runs)},
                indent=2) + "\n")
        finally:
            if fcntl is not None:
                fcntl.flock(lock_file.fileno(), fcntl.LOCK_UN)
    return record


def _read_bench_runs(target: Path) -> "list[dict[str, Any]]":
    """The recorded runs of a bench history; ``[]`` when there is none.

    A history that does not parse, has no ``runs`` list, or whose
    ``sha256`` trailer does not match its runs is renamed aside by
    :func:`repro.io.quarantine` (with a warning on stderr) and the
    caller starts a fresh one.  Histories written before the trailer
    existed carry no ``sha256`` field and load unchecked.
    """
    try:
        blob = target.read_bytes()
    except FileNotFoundError:
        return []
    problem = None
    try:
        history = json.loads(blob)
    except ValueError as error:
        problem = f"unparsable ({error})"
    else:
        runs = history.get("runs") if isinstance(history, dict) else None
        if not isinstance(runs, list):
            problem = "no 'runs' list"
        elif "sha256" in history and history["sha256"] != canonical_digest(
                runs):
            problem = "sha256 trailer does not match its runs"
    if problem is None:
        return runs
    aside = quarantine(target)
    print(f"warning: bench history {target} is corrupt ({problem}); "
          f"moved it to {aside.name} and started a fresh history",
          file=sys.stderr)
    return []
