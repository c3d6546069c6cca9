"""Tests of the parallel campaign runner and the experiments CLI.

The load-bearing guarantee: a campaign's results are **byte-identical**
for every ``--jobs`` count, because per-task seeds are derived
deterministically and merges consume task results in serial order.
The identity test runs the full ``all`` campaign at smoke scale twice —
serial and with a 4-worker pool — and diffs stdout and the exported
CSVs byte for byte.
"""

import json

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main
from repro.experiments.runner import (
    CampaignTask,
    execute_task,
    plan_campaign,
    plan_experiment,
    run_campaign,
    write_bench_json,
)
from repro.experiments.scale import PAPER, QUICK, SMOKE, resolve_scale


# ---------------------------------------------------------------- plan

EXPECTED_TASK_COUNTS = {
    "fig6a": 3, "fig6b": 3, "fig6c": 3,     # one per interrupt load
    "fig7": 4,                              # bound cases a-d
    "tab62": 3,                             # one per interrupt load
    "validation": 2,                        # classic + monitored legs
    "ablation": 3,                          # boost / throttle / depth
    "sweep": 9,                             # 4 cycle + 5 d_min
    "design": 1,
}


def _count_by_experiment(tasks):
    by_experiment = {}
    for task in tasks:
        by_experiment[task.experiment] = by_experiment.get(task.experiment, 0) + 1
    return by_experiment


def test_plan_covers_every_experiment():
    tasks, merges = plan_campaign(EXPERIMENTS, SMOKE, seed=1)
    assert set(merges) == set(EXPERIMENTS)
    assert _count_by_experiment(tasks) == EXPECTED_TASK_COUNTS
    assert len(tasks) == sum(EXPECTED_TASK_COUNTS.values())


def test_paper_plan_is_straight_line():
    """Paper-scale ``all`` plans 31 self-contained tasks: no snapshot
    task, no dependency fields, every kind dispatches to a task
    function."""
    from repro.experiments.runner import TASK_FUNCTIONS

    tasks, _ = plan_campaign(EXPERIMENTS, PAPER, seed=1)
    assert len(tasks) == 31
    counts = _count_by_experiment(tasks)
    assert counts["fig7"] == 4 and counts["sweep"] == 9
    assert {task.kind for task in tasks} == set(TASK_FUNCTIONS)
    assert all(set(vars(task)) == {"experiment", "kind", "kwargs"}
               for task in tasks)


def test_plan_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        plan_experiment("fig9", SMOKE, seed=1)


def test_tasks_are_picklable():
    import pickle

    tasks, _ = plan_campaign(EXPERIMENTS, SMOKE, seed=1)
    for task in tasks:
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task


def test_execute_task_dispatches():
    task = CampaignTask("design", "design", {"irq_count": SMOKE.design_irqs})
    result = execute_task(task)
    assert result.simulated_misses_at_min == 0


def test_resolve_scale():
    assert resolve_scale() is PAPER
    assert resolve_scale(quick=True) is QUICK
    assert resolve_scale(smoke=True) is SMOKE
    assert resolve_scale(quick=True, smoke=True) is SMOKE
    # the paper's headline count: 3 loads x 5000 IRQs = 15000 per scenario
    assert PAPER.fig6_irqs_per_load * 3 == 15_000


def test_run_campaign_serial_equals_parallel_results():
    serial = run_campaign(("validation",), SMOKE, seed=1, jobs=1)
    parallel = run_campaign(("validation",), SMOKE, seed=1, jobs=2)
    assert (serial["validation"].classic_measured_max_us
            == parallel["validation"].classic_measured_max_us)
    assert (serial["validation"].interposed_result.latencies_us
            == parallel["validation"].interposed_result.latencies_us)


# ------------------------------------------------------------ executor

@pytest.mark.parametrize("seed", [1, 2])
def test_forked_campaigns_equal_across_jobs(seed):
    """fig7 cases and sweep points run in-process at ``jobs=1`` and
    as pool items at ``jobs=2``, with equal results."""
    serial = run_campaign(("fig7", "sweep"), SMOKE, seed=seed, jobs=1)
    parallel = run_campaign(("fig7", "sweep"), SMOKE, seed=seed, jobs=2)
    assert set(serial["fig7"]) == set(parallel["fig7"])
    for case in serial["fig7"]:
        assert (serial["fig7"][case].series_us
                == parallel["fig7"][case].series_us)
        assert (serial["fig7"][case].learned_table
                == parallel["fig7"][case].learned_table)
    assert serial["sweep"] == parallel["sweep"]


def test_serial_cache_is_warm_in_parallel(tmp_path):
    """Cache fingerprints do not depend on the jobs count: a cache
    written at ``jobs=1`` is fully warm at ``jobs=2``."""
    from repro.experiments.cache import ResultCache

    cache_dir = tmp_path / "cache"
    cold = ResultCache(cache_dir)
    run_campaign(("fig7", "sweep"), SMOKE, seed=1, jobs=1, cache=cold)
    assert cold.stats.misses == 13 and cold.stats.hits == 0

    warm = ResultCache(cache_dir)
    run_campaign(("fig7", "sweep"), SMOKE, seed=1, jobs=2, cache=warm)
    assert warm.stats.misses == 0
    assert warm.stats.hits == cold.stats.misses


def test_warm_run_digests_only_fork_parents(tmp_path, monkeypatch):
    """Cache keys are a function of the task alone: a warm run digests
    no result and probes the cache exactly once per task."""
    from repro.experiments import cache as cache_module
    from repro.experiments.cache import ResultCache

    cache_dir = tmp_path / "cache"
    run_campaign(("fig7", "sweep"), SMOKE, seed=1, jobs=1,
                 cache=ResultCache(cache_dir))
    digested = []
    loaded = []

    def counting_digest(result):
        digested.append(result)
        return real_digest(result)

    def counting_load(self, key):
        loaded.append(key)
        return real_load(self, key)

    real_digest = cache_module.result_digest
    real_load = ResultCache.load
    monkeypatch.setattr(cache_module, "result_digest", counting_digest)
    monkeypatch.setattr(ResultCache, "load", counting_load)
    tasks, _ = plan_campaign(("fig7", "sweep"), SMOKE, seed=1)
    run_campaign(("fig7", "sweep"), SMOKE, seed=1, jobs=1,
                 cache=ResultCache(cache_dir))
    assert len(digested) == 0
    assert len(loaded) == len(set(loaded)) == len(tasks)


def test_one_pool_per_campaign_call(monkeypatch, tmp_path, capsys):
    """One parallel call over several experiments opens a single pool,
    sized to the jobs; a fully warm re-run opens none."""
    from repro.experiments import runner
    from repro.experiments.cache import ResultCache

    real_context = runner._pool_context
    sizes = []

    class CountingContext:
        def Pool(self, processes, *args, **kwargs):
            sizes.append(processes)
            return real_context().Pool(processes, *args, **kwargs)

    monkeypatch.setattr(runner, "_pool_context", CountingContext)
    names = ("fig6a", "fig7", "tab62", "sweep", "design")
    cold = run_campaign(names, SMOKE, seed=1, jobs=2,
                        cache=ResultCache(tmp_path / "cache"))
    assert sizes == [2]
    warm = run_campaign(names, SMOKE, seed=1, jobs=2,
                        cache=ResultCache(tmp_path / "cache"))
    assert sizes == [2]
    assert warm["sweep"] == cold["sweep"]
    # the CLI runs the whole invocation as one call, so one pool
    assert main(["fig6", "--smoke", "--jobs", "2", "--no-cache"]) == 0
    assert sizes == [2, 2]


def test_experiments_stream_in_order_before_the_campaign_ends():
    """Each experiment is released, in ``names`` order, as soon as its
    last task resolves: the first one is handed on before the last
    task's progress callback fires, and released results are not kept
    in the returned dict."""
    names = ("fig6a", "tab62", "validation", "design")
    events = []
    returned = run_campaign(
        names, SMOKE, seed=1, jobs=2,
        progress=lambda done, total, task: events.append(
            ("progress", done, total)),
        on_experiment=lambda name, merged: events.append(("emit", name)),
    )
    assert returned == {}
    emitted = [event[1] for event in events if event[0] == "emit"]
    assert emitted == list(names)
    total = events[0][2]
    assert events.index(("emit", names[0])) < events.index(
        ("progress", total, total))


@pytest.mark.parametrize("jobs", [1, 2])
def test_queue_wait_counts_only_idle_workers(jobs):
    """In-process tasks never wait; pool tasks wait only while a free
    worker sits idle, so the summed wait stays below wall x jobs."""
    from repro.experiments.runner import CampaignTelemetry

    telemetry = CampaignTelemetry()
    run_campaign(("fig6a", "tab62", "validation"), SMOKE, seed=1,
                 jobs=jobs, telemetry=telemetry)
    waits = [task.queue_wait_seconds for task in telemetry.tasks
             if not task.cached]
    assert len(waits) == 8
    if jobs == 1:
        assert waits == [0.0] * len(waits)
    assert 0.0 <= sum(waits) < telemetry.wall_seconds * jobs


# ----------------------------------------------------------------- CLI

def _read_tree(directory):
    # manifest.json intentionally records run parameters (jobs, wall
    # times), so it is compared field-wise below, not byte-wise here.
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.iterdir())
        if path.name != "manifest.json"
    }


def test_cli_outputs_byte_identical_across_jobs(tmp_path, capsys):
    """The acceptance property: serial and --jobs 4 runs diff clean."""
    import json

    export_serial = tmp_path / "serial"
    export_parallel = tmp_path / "parallel"

    assert main(["all", "--smoke", "--jobs", "1", "--no-cache",
                 "--export", str(export_serial)]) == 0
    serial_stdout = capsys.readouterr().out
    assert main(["all", "--smoke", "--jobs", "4", "--no-cache",
                 "--export", str(export_parallel)]) == 0
    parallel_stdout = capsys.readouterr().out

    assert serial_stdout == parallel_stdout
    assert _read_tree(export_serial) == _read_tree(export_parallel)
    # every experiment rendered something
    for name in EXPERIMENTS:
        assert f"=== {name} " in serial_stdout

    # the manifests agree on everything that describes the *results*
    serial_manifest = json.loads((export_serial / "manifest.json").read_text())
    parallel_manifest = json.loads(
        (export_parallel / "manifest.json").read_text())
    for key in ("format", "version", "experiments", "scale", "seed", "files"):
        assert serial_manifest[key] == parallel_manifest[key]
    assert serial_manifest["jobs"] == 1
    assert parallel_manifest["jobs"] == 4
    assert serial_manifest["files"] == sorted(
        path.name for path in export_serial.glob("*.csv"))


def test_cli_quick_smoke_target(capsys):
    """The documented CI smoke target runs the full quick campaign."""
    assert main(["all", "--quick", "--jobs", "2", "--no-cache"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert f"=== {name} " in out


def test_quick_campaign_warm_cache_speedup(tmp_path, capsys):
    """Acceptance: a warm re-run of the quick campaign is >= 5x faster
    than the cold run and byte-identical to it, with the wall times and
    cache counters recorded in the bench JSON history."""
    cache_dir = str(tmp_path / "cache")
    bench = tmp_path / "BENCH_experiments.json"
    argv = ["all", "--quick", "--jobs", "2",
            "--cache-dir", cache_dir, "--cache-stats",
            "--bench-json", str(bench)]

    assert main(argv) == 0
    cold_stdout = capsys.readouterr().out
    assert main(argv) == 0
    warm_stdout = capsys.readouterr().out

    assert warm_stdout == cold_stdout
    cold, warm = json.loads(bench.read_text())["runs"]
    assert cold["cache"]["hits"] == 0 and cold["cache"]["misses"] > 0
    assert warm["cache"]["misses"] == 0
    assert warm["cache"]["hits"] == cold["cache"]["misses"]
    assert cold["total_wall_seconds"] >= 5 * warm["total_wall_seconds"]


@pytest.mark.parametrize("jobs", ["-2", "0"])
def test_cli_rejects_non_positive_jobs(jobs, tmp_path, capsys):
    export = tmp_path / "export"
    with pytest.raises(SystemExit) as raised:
        main(["validation", "--smoke", "--jobs", jobs, "--no-cache",
              "--export", str(export)])
    assert raised.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not export.exists()


def test_cli_rejects_conflicting_scales(capsys):
    with pytest.raises(SystemExit):
        main(["fig6a", "--quick", "--smoke"])
    capsys.readouterr()


# ---------------------------------------------------------- bench json

def test_write_bench_json_appends_history(tmp_path):
    target = tmp_path / "BENCH_experiments.json"
    write_bench_json(target, scale_name="smoke", jobs=1,
                     experiment_seconds={"fig6a": 1.25})
    from repro.sim.benchmark import measure_engine_throughput

    engine = measure_engine_throughput(events=2_000, repeats=1)
    write_bench_json(target, scale_name="quick", jobs=4,
                     experiment_seconds={"fig6a": 0.5, "fig7": 1.0},
                     engine=engine)
    history = json.loads(target.read_text())
    assert [run["scale"] for run in history["runs"]] == ["smoke", "quick"]
    assert history["runs"][0]["experiment_wall_seconds"] == {"fig6a": 1.25}
    assert history["runs"][1]["total_wall_seconds"] == 1.5
    assert history["runs"][1]["engine"]["events_per_second"] > 0
    assert "engine" not in history["runs"][0]


def test_write_bench_json_records_host(tmp_path):
    import os
    import platform

    target = tmp_path / "BENCH_experiments.json"
    write_bench_json(target, scale_name="smoke", jobs=1,
                     experiment_seconds={"fig6a": 0.1})
    host = json.loads(target.read_text())["runs"][0]["host"]
    assert host["python"] == platform.python_version()
    assert host["cpu_count"] == os.cpu_count()
    assert host["platform"]


def test_write_bench_json_survives_corrupt_history(tmp_path, capsys):
    target = tmp_path / "BENCH_experiments.json"
    target.write_text("{not json")
    write_bench_json(target, scale_name="smoke", jobs=1,
                     experiment_seconds={"design": 0.1})
    history = json.loads(target.read_text())
    assert len(history["runs"]) == 1
    # The corrupt bytes are kept aside, never overwritten.
    aside = list(tmp_path.glob("BENCH_experiments.json.corrupt-*"))
    assert len(aside) == 1
    assert aside[0].read_text() == "{not json"
    assert aside[0].name in capsys.readouterr().err


def test_write_bench_json_checksums_history(tmp_path):
    from repro.io import canonical_digest

    target = tmp_path / "BENCH_experiments.json"
    for seconds in (0.1, 0.2):
        write_bench_json(target, scale_name="smoke", jobs=1,
                         experiment_seconds={"design": seconds})
    history = json.loads(target.read_text())
    assert len(history["runs"]) == 2
    assert history["sha256"] == canonical_digest(history["runs"])


def test_write_bench_json_appends_to_history_without_checksum(tmp_path):
    """Histories written before the trailer existed load unchecked."""
    target = tmp_path / "BENCH_experiments.json"
    target.write_text(json.dumps({"runs": [{"scale": "old"}]}, indent=2))
    write_bench_json(target, scale_name="smoke", jobs=1,
                     experiment_seconds={"design": 0.1})
    history = json.loads(target.read_text())
    assert [run["scale"] for run in history["runs"]] == ["old", "smoke"]
    assert not list(tmp_path.glob("*.corrupt-*"))


def test_write_bench_json_quarantines_checksum_mismatch(tmp_path):
    target = tmp_path / "BENCH_experiments.json"
    write_bench_json(target, scale_name="smoke", jobs=1,
                     experiment_seconds={"design": 0.1})
    tampered = target.read_text().replace('"smoke"', '"paper"')
    target.write_text(tampered)
    write_bench_json(target, scale_name="quick", jobs=1,
                     experiment_seconds={"design": 0.1})
    history = json.loads(target.read_text())
    assert [run["scale"] for run in history["runs"]] == ["quick"]
    aside = list(tmp_path.glob("BENCH_experiments.json.corrupt-*"))
    assert [path.read_text() for path in aside] == [tampered]
