"""Run one experiments campaign with spans around each layer's public calls.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_campaign.py --t0 NS --out trace.json -- \\
        all --seed 1 --jobs 1 --cache-dir DIR

The program under test gets no tracing code: this script imports
``repro.experiments.__main__``, rebinds the public functions named in
``LAYER_CALLS`` below to span-recording wrappers (in every ``repro``
module that imported them), and calls the CLI's ``main`` with the given
arguments.  Campaign stdout is the CLI's own.

``--t0`` is the launcher's ``time.monotonic_ns()`` just before it
started this process; the root span starts there, so interpreter boot
counts as time in no layer.  Pool workers are forked from this process
and inherit the wrappers; each appends what it recorded to a side file
after every work item, and the parent merges those files into ``--out``
when the campaign ends.
"""

from __future__ import annotations

import argparse
import functools
import glob
import importlib
import itertools
import json
import multiprocessing.pool
import os
import pickle
import sys

from campaign import host_info
from tracer import Tracer

#: (module, attribute, span name) of every plain function wrapped with
#: a span and nothing else.  Functions needing counters get their own
#: wrapper in :func:`install`.
LAYER_CALLS = (
    ("repro.experiments.common", "PaperSystemConfig.build", "hypervisor.build"),
    ("repro.analysis.schedulability", "min_admissible_dmin",
     "analysis.min_admissible_dmin"),
    ("repro.experiments.cache", "source_fingerprint",
     "cache.source_fingerprint"),
    ("repro.experiments.cache", "result_digest", "cache.digest"),
    ("repro.metrics.stats", "summarize", "metrics.summarize"),
)

#: (module, function, counter) of the snapshot layer's entry points.
SNAPSHOT_CALLS = (
    ("repro.sim.snapshot", "capture_world", "captures"),
    ("repro.sim.worldstore", "capture_world_layered", "captures"),
    ("repro.sim.snapshot", "restore_world", "restores"),
    ("repro.sim.worldstore", "fork_snapshot", "forks"),
    ("repro.experiments.common", "fork_warm_variant", "forks"),
)

#: Counter deltas read from ``hv.engine`` / ``hv.stats`` around a run.
SIM_COUNTERS = (
    ("sim.events", "engine", "events_executed"),
    ("sim.skipped_events", "engine", "skipped_events"),
    ("sim.dispatch_batches", "engine", "dispatch_batches"),
    ("sim.compactions", "engine", "compactions"),
    ("sim.irqs_delivered", "stats", "irqs_delivered"),
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _rebind(module_name: str, path: str, make_wrapper) -> None:
    """Replace a function with ``make_wrapper(original)``.

    A method is replaced on its class.  A module-level function is
    replaced in every loaded ``repro`` module that holds it, which
    covers ``from module import name`` bindings made at import time.
    """
    owner, attr = _resolve(module_name, path)
    original = getattr(owner, attr)
    wrapper = functools.wraps(original)(make_wrapper(original))
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _spanned(tracer: Tracer, name: str):
    def make(original):
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)
        return traced
    return make


class _TaskIndex:
    """Maps a campaign task to ``"<experiment>:<index>"`` in the last plan.

    The plan is captured in the parent before a pool forks, so workers
    inherit it.  Forked tasks execute with their parent's result
    injected into the kwargs, so the fallback matches planned kwargs
    as a subset.
    """

    def __init__(self) -> None:
        self.plan: list = []

    def label(self, task) -> "str | None":
        for index, planned in enumerate(self.plan):
            if planned == task:
                return f"{task.experiment}:{index}"
        for index, planned in enumerate(self.plan):
            if (planned.experiment == task.experiment
                    and planned.kind == task.kind
                    and all(key in task.kwargs and task.kwargs[key] == value
                            for key, value in planned.kwargs.items())):
                return f"{task.experiment}:{index}"
        return None


def install(tracer: Tracer, cli, workers_dir: str, telemetry) -> None:
    """Wrap every layer boundary of the already imported program."""
    from repro.analysis import busy_window
    from repro.experiments import runner
    from repro.hypervisor.hypervisor import Hypervisor
    from repro.sim.worldstore import default_store
    from repro.workloads import automotive, synthetic

    counts = tracer.counts
    tasks = _TaskIndex()
    parent_pid = os.getpid()

    for module_name, path, name in LAYER_CALLS:
        _rebind(module_name, path, _spanned(tracer, name))

    # -- workloads: generation calls and their memo hits; each probe
    #    counts the memo's misses so far
    for module, attr, misses in (
            (synthetic, "exponential_interarrivals",
             lambda: synthetic._exponential_cached.cache_info().misses),
            (synthetic, "bursty_interarrivals",
             lambda: synthetic._bursty_cached.cache_info().misses),
            (automotive, "generate_automotive_trace",
             lambda: len(automotive._TRACE_CACHE))):
        def make_workload(original, name=f"workloads.{attr}", misses=misses):
            def traced(*args, **kwargs):
                before = misses()
                span = tracer.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close(span)
                    counts["workloads.calls"] += 1
                    counts["workloads.memo_hits"] += 1 - (misses() - before)
            return traced
        _rebind(module.__name__, attr, make_workload)

    # -- hypervisor: fresh systems started
    def make_start(original):
        def traced(self, *args, **kwargs):
            span = tracer.open("hypervisor.start")
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.close(span)
                counts["hypervisor.builds"] += 1
        return traced
    _rebind(Hypervisor.__module__, "Hypervisor.start", make_start)

    # -- sim: one span per run call, engine/stats counters around it
    def make_run(original):
        def traced(self, *args, **kwargs):
            sources = {"engine": self.engine, "stats": self.stats}
            before = [getattr(sources[owner], attr)
                      for _, owner, attr in SIM_COUNTERS]
            span = tracer.open("sim.run")
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.close(span)
                for (name, owner, attr), value in zip(SIM_COUNTERS, before):
                    counts[name] += getattr(sources[owner], attr) - value
        return traced
    _rebind(Hypervisor.__module__, "Hypervisor.run_until_irq_count", make_run)
    _rebind(Hypervisor.__module__, "Hypervisor.run_until", make_run)

    # -- snapshot: spans, plus calls made outside any other snapshot span
    for module_name, attr, kind in SNAPSHOT_CALLS:
        def make_snapshot(original, name=f"snapshot.{attr}", kind=kind):
            def traced(*args, **kwargs):
                if not tracer.in_layer("snapshot"):
                    counts[f"snapshot.{kind}"] += 1
                span = tracer.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close(span)
            return traced
        _rebind(module_name, attr, make_snapshot)

    # -- analysis: busy windows, interference evaluations, d_min probes
    def make_busy_time(original):
        def traced(*args, **kwargs):
            counts["analysis.busy_windows"] += 1
            return original(*args, **kwargs)
        return traced
    _rebind(busy_window.__name__, "busy_time", make_busy_time)

    def make_response_time(original):
        def traced(own_cost, model, interference, *args, **kwargs):
            # A C-level tick keeps the per-call cost of counting small;
            # the analysis evaluates interference ~10^6 times a campaign.
            calls = itertools.count()

            def counted(window, tick=calls.__next__):
                tick()
                return interference(window)
            span = tracer.open("analysis.response_time")
            try:
                return original(own_cost, model, counted, *args, **kwargs)
            finally:
                tracer.close(span)
                counts["analysis.interference_calls"] += next(calls)
        return traced
    _rebind(busy_window.__name__, "response_time", make_response_time)

    def make_partition(original):
        def traced(*args, **kwargs):
            if tracer.in_span("analysis.min_admissible_dmin"):
                counts["analysis.dmin_probes"] += 1
            span = tracer.open("analysis.partition_schedulable")
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)
        return traced
    _rebind("repro.analysis.schedulability", "partition_schedulable",
            make_partition)

    # -- cache: fingerprint (names the task), load, store
    def make_fingerprint(original):
        def traced(task, *args, **kwargs):
            tracer.task = tasks.label(task)
            span = tracer.open("cache.fingerprint")
            try:
                return original(task, *args, **kwargs)
            finally:
                tracer.close(span)
        return traced
    _rebind("repro.experiments.cache", "task_fingerprint", make_fingerprint)

    def make_load(original):
        def traced(self, key):
            before = self.stats.bytes_read
            span = tracer.open("cache.load")
            try:
                entry = original(self, key)
            finally:
                tracer.close(span)
            counts["cache.hits" if entry is not None else "cache.misses"] += 1
            counts["cache.bytes_read"] += self.stats.bytes_read - before
            return entry
        return traced
    _rebind("repro.experiments.cache", "ResultCache.load", make_load)

    def make_store(original):
        def traced(self, *args, **kwargs):
            before = self.stats.bytes_written
            span = tracer.open("cache.store")
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.close(span)
                counts["cache.bytes_written"] += (self.stats.bytes_written
                                                  - before)
        return traced
    _rebind("repro.experiments.cache", "ResultCache.store", make_store)

    # -- runner: plan capture, task labels, pools, worker hand-back
    def make_plan(original):
        def remembered(*args, **kwargs):
            planned, merges = original(*args, **kwargs)
            tasks.plan = list(planned)
            return planned, merges
        return remembered
    _rebind(runner.__name__, "plan_campaign", make_plan)

    def make_execute(original):
        def traced(task):
            tracer.task = tasks.label(task)
            span = tracer.open("experiments.task")
            try:
                return original(task)
            finally:
                tracer.close(span)
        return traced
    _rebind("repro.experiments.runner", "execute_task", make_execute)

    def make_subtree(original):
        def traced(item):
            store_stats = default_store().stats
            fragments = store_stats.fragments_stored
            tracer.task = None
            span = tracer.open("runner.subtree")
            try:
                outcome = original(item)
            finally:
                tracer.close(span)
                tracer.task = None
                counts["snapshot.fragments_stored"] += (
                    store_stats.fragments_stored - fragments)
            if os.getpid() != parent_pid:
                # What the pool pickles back to the parent; the side
                # file is complete before the parent gets the result.
                counts["runner.result_bytes"] += len(pickle.dumps(outcome))
                payload = tracer.drain()
                path = os.path.join(workers_dir, f"{payload['pid']}.jsonl")
                with open(path, "a") as handle:
                    handle.write(json.dumps(payload) + "\n")
            return outcome
        return traced
    _rebind("repro.experiments.runner", "_execute_subtree", make_subtree)

    base_pool = multiprocessing.pool.Pool

    class TracedPool(base_pool):
        def __init__(self, *args, **kwargs):
            span = tracer.open("runner.pool_start")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.close(span)
                counts["runner.pool_starts"] += 1
    multiprocessing.pool.Pool = TracedPool

    # -- the CLI's per-experiment loop: campaign + render attribution
    def make_campaign(original):
        def traced(names, *args, **kwargs):
            if kwargs.get("telemetry") is None:
                kwargs["telemetry"] = telemetry
            tracer.task = None
            span = tracer.open("runner.campaign")
            try:
                return original(names, *args, **kwargs)
            finally:
                tracer.close(span)
                tracer.task = None
                for name in names:
                    counts[f"experiment.{name}_ns"] += span.duration_ns
        return traced
    _rebind(cli.__name__, "run_campaign", make_campaign)

    def make_render(original):
        def traced(name, *args, **kwargs):
            span = tracer.open("render.experiment")
            try:
                return original(name, *args, **kwargs)
            finally:
                tracer.close(span)
                counts[f"experiment.{name}_ns"] += span.duration_ns
        return traced
    _rebind(cli.__name__, "_render_one", make_render)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t0", type=int, required=True,
                        help="launcher's time.monotonic_ns() at process start")
    parser.add_argument("--out", required=True, help="trace JSON to write")
    parser.add_argument("campaign", nargs=argparse.REMAINDER,
                        help="arguments for python -m repro.experiments")
    args = parser.parse_args(argv)
    campaign = args.campaign[1:] if args.campaign[:1] == ["--"] else args.campaign

    tracer = Tracer()
    root = tracer.open("other.process", start_ns=args.t0)
    span = tracer.open("startup.import")
    import repro.experiments.__main__ as cli
    tracer.close(span)

    from repro.experiments.runner import CampaignTelemetry
    from repro.sim.engine import resolve_idle_skip
    from repro.sim.queue import resolve_backend_name

    telemetry = CampaignTelemetry()
    workers_dir = args.out + ".workers"
    os.makedirs(workers_dir, exist_ok=True)
    for stale in glob.glob(os.path.join(workers_dir, "*.jsonl")):
        os.unlink(stale)
    install(tracer, cli, workers_dir, telemetry)
    os.register_at_fork(after_in_child=tracer.reset_after_fork)

    code = cli.main(campaign)
    tracer.close(root)
    sys.stdout.flush()

    processes = [tracer.drain()]
    for path in sorted(glob.glob(os.path.join(workers_dir, "*.jsonl"))):
        with open(path) as handle:
            processes.extend(json.loads(line) for line in handle)
        os.unlink(path)
    os.rmdir(workers_dir)
    computed = [task for task in telemetry.tasks if not task.cached]
    record = {
        "format": "perfbench-trace-v1",
        "argv": campaign,
        "exit_code": code,
        "root_pid": os.getpid(),
        "host": host_info(),
        "engine": {"queue_backend": resolve_backend_name(None),
                   "idle_skip": resolve_idle_skip(None)},
        "telemetry": {
            **telemetry.as_dict(),
            "queue_wait_seconds": sum(task.queue_wait_seconds
                                      for task in computed),
        },
        "processes": processes,
    }
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: the launcher's wall clock should end
    # where the trace ends, not after the garbage of a whole campaign
    # has been freed.
    os._exit(status)
