"""Snapshot/fork determinism: forked continuations are byte-identical.

The non-negotiable invariant of :mod:`repro.sim.snapshot` is that a
continuation forked from a captured world produces *exactly* the
results of the straight-line run it branched off — latency records,
trace stream, statistics, CSV exports, everything.  These tests pin
that invariant at every layer it is used:

* the raw capture/restore protocol at arbitrary quiescent points
  (hypothesis drives the fork point and the policy);
* warm worlds captured at t=0 and their restored devices.

The experiment campaigns themselves never fork: every task runs
straight-line.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import (
    MonitoredInterposing,
    NeverInterpose,
    SelfLearningInterposing,
)
from repro.experiments.common import (
    IRQ_TIMER_DEVICE,
    PaperSystemConfig,
    build_warm_world,
    run_irq_scenario,
    run_irq_scenario_from,
)
from repro.sim.snapshot import (
    SnapshotError,
    capture_world,
    restore_world,
    settle,
)
from repro.workloads.synthetic import clip_to_dmin, exponential_interarrivals


def scenario_fingerprint(result) -> dict:
    """Everything observable about one run, as comparable plain data."""
    hv = result.hypervisor
    return {
        "records": list(result.records),
        "latencies_us": list(result.latencies_us),
        "summary": dataclasses.asdict(result.summary),
        "mode_counts": dict(result.mode_counts),
        "context_switches": dict(result.context_switch_counts),
        "stats": dataclasses.asdict(hv.stats),
        "trace": list(hv.trace.events),
        "cpu_by_category": dict(hv.cpu.consumed_by_category),
        "engine": (hv.engine.now, hv.engine.events_executed,
                   hv.engine.events_scheduled, hv.engine.events_cancelled),
    }


# --------------------------------------------------------- raw protocol

def _make_policy(kind: str, dmin: int):
    if kind == "monitored":
        return MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin))
    if kind == "learning":
        return SelfLearningInterposing(depth=3, learn_count=25,
                                       load_fraction=0.25)
    return NeverInterpose()


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**20),
       fork_at=st.integers(1, 45),
       kind=st.sampled_from(["monitored", "learning", "never"]))
def test_fork_at_random_quiescent_point_is_byte_identical(seed, fork_at,
                                                          kind):
    """Core property: fork anywhere, finish, compare everything."""
    system = PaperSystemConfig(trace_enabled=True)
    clock = system.clock()
    dmin = clock.us_to_cycles(1_444.0)
    intervals = clip_to_dmin(
        exponential_interarrivals(50, dmin, seed=seed), dmin
    )
    straight = run_irq_scenario(system, _make_policy(kind, dmin), intervals)

    hv, timer = system.build(_make_policy(kind, dmin), intervals)
    hv.start()
    timer.arm_next()
    hv.run_until_irq_count(min(fork_at, len(intervals)))
    snapshot = settle(hv, {timer.name: timer})
    forked = run_irq_scenario_from(snapshot, system)

    assert scenario_fingerprint(forked) == scenario_fingerprint(straight)


def test_restore_is_repeatable_and_continuations_are_independent():
    """One snapshot, two forks: identical results, no shared state."""
    system = PaperSystemConfig(trace_enabled=True)
    clock = system.clock()
    dmin = clock.us_to_cycles(1_444.0)
    intervals = clip_to_dmin(
        exponential_interarrivals(30, dmin, seed=7), dmin
    )
    hv, timer = system.build(
        MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin)), intervals
    )
    hv.start()
    timer.arm_next()
    hv.run_until_irq_count(10)
    snapshot = settle(hv, {timer.name: timer})
    first = run_irq_scenario_from(snapshot, system)
    second = run_irq_scenario_from(snapshot, system)
    assert scenario_fingerprint(first) == scenario_fingerprint(second)
    assert first.hypervisor is not second.hypervisor


def test_snapshot_digest_is_stable_and_content_sensitive():
    system = PaperSystemConfig()
    clock = system.clock()
    dmin = clock.us_to_cycles(1_444.0)
    intervals = clip_to_dmin(
        exponential_interarrivals(20, dmin, seed=3), dmin
    )
    warm_a = build_warm_world(system, NeverInterpose(), intervals)
    warm_b = build_warm_world(system, NeverInterpose(), intervals)
    assert warm_a.digest() == warm_b.digest()
    other = build_warm_world(system, NeverInterpose(), intervals[:-1])
    assert warm_a.digest() != other.digest()


def test_capture_refuses_unclaimed_pending_events():
    system = PaperSystemConfig()
    clock = system.clock()
    dmin = clock.us_to_cycles(1_444.0)
    intervals = clip_to_dmin(
        exponential_interarrivals(5, dmin, seed=3), dmin
    )
    hv, timer = system.build(NeverInterpose(), intervals)
    hv.start()
    timer.arm_next()
    # The armed timer's heap entry has no owner if the device is not
    # registered for the capture: quiescence demands every pending
    # event is claimed, so this must fail loudly.
    with pytest.raises(SnapshotError):
        capture_world(hv, devices={})


# -------------------------------------------------- warm-world devices

def test_warm_world_restores_timer_device():
    system = PaperSystemConfig()
    clock = system.clock()
    dmin = clock.us_to_cycles(1_444.0)
    intervals = clip_to_dmin(
        exponential_interarrivals(10, dmin, seed=5), dmin
    )
    warm = build_warm_world(system, NeverInterpose(), intervals)
    hv, devices = restore_world(warm)
    timer = devices[IRQ_TIMER_DEVICE]
    assert timer.interval_count == len(intervals)
    assert timer.armed
    assert hv.engine.pending_events == warm.state["pending"]
