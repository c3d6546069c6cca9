"""The bench-history diff tool: table-driven section checks.

``benchmarks/compare_bench.py`` diffs the last two records of a
``BENCH_experiments.json``.  These tests pin the ``engine`` check's
queue-name guard (history written before the single heap queue says
``bucket``, and is skipped rather than misreported) and the
``engine_subtree_ab`` check added with subtree scheduling (throughput,
speedup, and retained-memory-ratio regressions, and the skip note for
history that predates the section).
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


def _subtree_ab(nodes_per_second: float, speedup: float,
                memory_ratio: float) -> dict:
    return {
        "speedup": speedup,
        "memory_ratio": memory_ratio,
        "branches": 1000,
        "nodes": 1111,
        "leaf_digest": "0" * 16,
        "budget_bytes": 1_048_576,
        "unlimited_peak_bytes": 4_000_000,
        "spilled_fragments": 999,
        "spill_bytes_written": 480_000,
        "nodes_per_second": {"wave": nodes_per_second / speedup,
                             "subtree": nodes_per_second},
        "peak_retained_bytes": {"wave": 27_000_000, "subtree": 2_500_000,
                                "unlimited": 4_000_000},
    }


def _subtree_run(subtree_ab: "dict | None") -> dict:
    record = {"scale": "smoke", "jobs": 1,
              "experiment_wall_seconds": {"fig6a": 1.0}}
    if subtree_ab is not None:
        record["engine_subtree_ab"] = subtree_ab
    return record


def _subtree_ab_check() -> "compare_bench.CheckSpec":
    return next(check for check in compare_bench.CHECKS
                if check.key == "engine_subtree_ab")


def test_subtree_drop_is_flagged():
    check = _subtree_ab_check()
    lines, regressed = check.run(
        _subtree_run(_subtree_ab(140.0, 5.2, 10.8)),
        _subtree_run(_subtree_ab(60.0, 1.4, 2.0)),
        threshold=0.20,
    )
    assert regressed
    assert any("throughput regression" in line for line in lines)
    assert any("speedup regression" in line for line in lines)
    assert any("retained-memory regression" in line for line in lines)


def test_subtree_steady_passes():
    check = _subtree_ab_check()
    lines, regressed = check.run(
        _subtree_run(_subtree_ab(140.0, 5.2, 10.8)),
        _subtree_run(_subtree_ab(135.0, 5.0, 10.1)),
        threshold=0.20,
    )
    assert not regressed
    assert any("subtree schedule" in line for line in lines)
    assert any("subtree memory ratio" in line for line in lines)


def test_history_predating_subtree_ab_skips_with_note():
    check = _subtree_ab_check()
    lines, regressed = check.run(
        _subtree_run(None), _subtree_run(_subtree_ab(140.0, 5.2, 10.8)),
        threshold=0.20)
    assert not regressed
    assert "predates engine_subtree_ab" in lines[0]


def test_full_diff_reports_subtree_fields(tmp_path, capsys):
    history = {"runs": [
        dict(_subtree_run(_subtree_ab(140.0, 5.2, 10.8)),
             total_wall_seconds=1.0, timestamp="2026-08-08T00:00:00Z"),
        dict(_subtree_run(_subtree_ab(142.0, 5.3, 10.9)),
             total_wall_seconds=1.0, timestamp="2026-08-08T01:00:00Z"),
    ]}
    path = tmp_path / "BENCH_experiments.json"
    path.write_text(json.dumps(history))
    assert compare_bench.main(["--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "subtree schedule" in out
    assert "subtree memory ratio" in out
    assert "no regressions beyond threshold." in out
