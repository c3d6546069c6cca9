"""The bench-history diff tool: table-driven section checks.

``benchmarks/compare_bench.py`` diffs the last two records of a
``BENCH_experiments.json``.  These tests pin the ``engine`` check's
queue-name guard (history written before the single heap queue says
``bucket``, and is skipped rather than misreported) and that history
records carrying the retired ``engine_subtree_ab`` section still
compare cleanly, and that histories with and without the ``sha256``
trailer both load.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

_MODULE_PATH = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "compare_bench.py")
_spec = importlib.util.spec_from_file_location("compare_bench", _MODULE_PATH)
compare_bench = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("compare_bench", compare_bench)
_spec.loader.exec_module(compare_bench)


def _engine_run(backend: str, events_per_second: float) -> dict:
    return {"scale": "smoke", "jobs": 1,
            "experiment_wall_seconds": {"fig6a": 1.0},
            "engine": {"backend": backend,
                       "events_per_second": events_per_second}}


def _engine_check() -> "compare_bench.CheckSpec":
    return next(check for check in compare_bench.CHECKS
                if check.key == "engine")


def test_engine_check_skips_history_from_another_queue():
    lines, regressed = _engine_check().run(
        _engine_run("bucket", 1_000_000.0), _engine_run("heap", 500_000.0),
        threshold=0.20)
    assert not regressed
    assert lines == ["  engine throughput: backends differ (bucket vs heap) "
                     "— not comparable, skipping."]


def test_engine_check_flags_throughput_drop():
    lines, regressed = _engine_check().run(
        _engine_run("heap", 1_000_000.0), _engine_run("heap", 500_000.0),
        threshold=0.20)
    assert regressed
    assert any("throughput regression" in line for line in lines)


def test_history_with_retired_subtree_section_compares_cleanly(
        tmp_path, capsys):
    """``engine_subtree_ab`` is no longer diffed: old records carrying
    it — even with a collapsed speedup — pass ``--strict``."""
    def run(speedup: float, timestamp: str) -> dict:
        return {"scale": "smoke", "jobs": 1,
                "experiment_wall_seconds": {"fig6a": 1.0},
                "total_wall_seconds": 1.0, "timestamp": timestamp,
                "engine_subtree_ab": {
                    "speedup": speedup, "memory_ratio": speedup,
                    "nodes_per_second": {"wave": 100.0,
                                         "subtree": 100.0 * speedup}}}

    path = tmp_path / "BENCH_experiments.json"
    path.write_text(json.dumps({"runs": [
        run(5.2, "2026-08-08T00:00:00Z"), run(1.1, "2026-08-08T01:00:00Z"),
    ]}))
    assert compare_bench.main(["--file", str(path), "--strict"]) == 0
    out = capsys.readouterr().out
    assert "subtree" not in out
    assert "no regressions beyond threshold." in out


def test_reads_histories_with_and_without_checksum(tmp_path):
    from repro.experiments.runner import write_bench_json

    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({"runs": [_engine_run("heap", 1.0)]}))
    assert compare_bench.load_runs(legacy) == [_engine_run("heap", 1.0)]
    current = tmp_path / "current.json"
    for seconds in (1.0, 1.1):
        write_bench_json(current, scale_name="smoke", jobs=1,
                         experiment_seconds={"fig6a": seconds})
    assert "sha256" in json.loads(current.read_text())
    runs = compare_bench.load_runs(current)
    assert [run["experiment_wall_seconds"]["fig6a"] for run in runs] \
        == [1.0, 1.1]
    assert compare_bench.main(["--file", str(current)]) == 0
