"""Golden pins for every canonical-JSON digest the program persists.

Snapshot digests, trace digests and cache fingerprints are compared
across processes, runs and cache directories, so their encoding is part
of the on-disk contract: a changed separator, ``ensure_ascii`` flag or
key order would silently turn every warm cache cold, or worse, let two
different states share a digest.  The expected values below were
computed before the encoders were folded into :mod:`repro.io`; any
drift in the canonical encoding fails here first.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.policy import NeverInterpose
from repro.experiments import cache
from repro.experiments.__main__ import EXPERIMENTS
from repro.experiments.common import PaperSystemConfig, build_warm_world
from repro.experiments.runner import plan_campaign
from repro.experiments.scale import PAPER
from repro.sim.snapshot import WorldSnapshot
from repro.sim.trace import TraceKind, TraceRecorder
from repro.sim.worldstore import canonical_json
from repro.workloads.synthetic import clip_to_dmin, exponential_interarrivals

#: Non-ASCII strings, floats at both ends of the range, nested keys out
#: of order: everything the encoding flags decide.
PAYLOAD = {
    "label": "δ⁻ bound · µs",
    "values": [0.1, 1.5, -2.5e-300, 1e22, 3],
    "nested": {"b": None, "a": [True, False, "ü"]},
    "ascii": "plain",
}
PAYLOAD_DIGEST = (
    "558878d887ef8a292f8d2387eec21589e0337a3cf222bf1572f6cfb6ebcf5ca8")


def test_worldstore_canonical_json_pin():
    text = canonical_json(PAYLOAD)
    assert "µ" in text                       # ensure_ascii stays off
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PAYLOAD_DIGEST


def test_canonical_digest_pin():
    from repro.io import canonical_digest
    from repro.io import canonical_json as io_canonical_json

    assert canonical_digest(PAYLOAD) == PAYLOAD_DIGEST
    assert io_canonical_json(PAYLOAD) == canonical_json(PAYLOAD)


def test_warm_world_snapshot_digest_pin():
    system = PaperSystemConfig()
    dmin = system.clock().us_to_cycles(1_444.0)
    intervals = clip_to_dmin(
        exponential_interarrivals(20, dmin, seed=3), dmin)
    warm = build_warm_world(system, NeverInterpose(), intervals)
    expected = (
        "c15742f95b7acbed2e8d75418694c5d56e3eeae5b8b6358dc5b13b91082ddb8b")
    assert warm.digest() == expected
    assert WorldSnapshot(dict(warm.state)).digest() == expected


def test_trace_recorder_digest_pin():
    recorder = TraceRecorder()
    recorder.emit(0, TraceKind.IRQ_RAISED, source="irq0", seq=0)
    recorder.emit(125, TraceKind.MONITOR_DENY, source="irq0",
                  note="δ⁻ µs", load=0.25)
    recorder.emit(400, TraceKind.SLOT_SWITCH, partition="P2",
                  window=[1, 2.5, None])
    assert recorder.digest() == (
        "627cc60db6637f0bae0f0feedd2dc62f38aaf6b2bcbcbcbd7e5e4dd965a6d23e")


@pytest.mark.parametrize("index, kind, plain", [
    (9, "fig7-case",
     "41ea68b4721bc465a5a8fafe52901d0930b3187af9df1e12d28f736f6e221351"),
    (25, "sweep-dmin-point",
     "9996497786e576c000e7d7442eab59c2a2c8d66be893997905ae9cfb330590aa"),
], ids=["fig7-case", "sweep-dmin-point"])
def test_paper_task_fingerprint_pins(monkeypatch, index, kind, plain):
    """A task's key hashes its kind, kwargs and sources only, so the
    first fig7 case and d_min point keep their pinned keys whatever
    their position in the plan (``CACHE_FORMAT`` stays unchanged)."""
    monkeypatch.setattr(cache, "source_fingerprint",
                        lambda module, root_package="repro": "0" * 64)
    tasks, _ = plan_campaign(list(EXPERIMENTS), PAPER, 1)
    task = tasks[index]
    assert task.kind == kind
    assert cache.task_fingerprint(task) == plain
