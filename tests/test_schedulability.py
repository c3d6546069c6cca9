"""Tests for partition-level schedulability analysis."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.schedulability import (
    InterposingLoad,
    TaskSpec,
    min_admissible_dmin,
    partition_schedulable,
    task_response_time,
)
from repro.hypervisor.config import CostModel

US = 200
CYCLE = 4_000 * US
SLOT = 2_000 * US
COSTS = CostModel()


def simple_tasks():
    return [
        TaskSpec("hi", priority=1, wcet=300 * US, period=8_000 * US),
        TaskSpec("lo", priority=5, wcet=700 * US, period=16_000 * US),
    ]


class TestTaskSpec:
    def test_defaults(self):
        task = TaskSpec("t", 1, wcet=100, period=1_000)
        assert task.relative_deadline() == 1_000

    def test_explicit_deadline(self):
        task = TaskSpec("t", 1, wcet=100, period=1_000, deadline=500)
        assert task.relative_deadline() == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskSpec("t", 1, wcet=0, period=100)
        with pytest.raises(ValueError):
            TaskSpec("t", 1, wcet=10, period=0)
        with pytest.raises(ValueError):
            TaskSpec("t", 1, wcet=10, period=100, jitter=-1)


class TestResponseTime:
    def test_highest_priority_task_tdma_only(self):
        """Hi task alone in the slot: R = C + TDMA interference."""
        tasks = simple_tasks()
        result = task_response_time(tasks[0], tasks, CYCLE, SLOT)
        # W = 300us + ceil(W/4000us)*2000us -> 2300us (one foreign block)
        assert result.response_time == 300 * US + (CYCLE - SLOT)

    def test_lower_priority_sees_preemption(self):
        tasks = simple_tasks()
        hi = task_response_time(tasks[0], tasks, CYCLE, SLOT)
        lo = task_response_time(tasks[1], tasks, CYCLE, SLOT)
        assert lo.response_time >= hi.response_time + 700 * US - 300 * US

    def test_interposing_adds_bounded_interference(self):
        tasks = simple_tasks()
        without = task_response_time(tasks[0], tasks, CYCLE, SLOT)
        load = InterposingLoad(dmin=4_000 * US, c_bh=40 * US)
        with_load = task_response_time(tasks[0], tasks, CYCLE, SLOT,
                                       interposing=[load], costs=COSTS)
        delta = with_load.response_time - without.response_time
        assert delta > 0
        # at most two Eq.14 quanta fit the busy window here
        assert delta <= 2 * load.effective_cost(COSTS)

    def test_multiple_loads_compose(self):
        tasks = simple_tasks()
        one = task_response_time(
            tasks[0], tasks, CYCLE, SLOT,
            interposing=[InterposingLoad(8_000 * US, 40 * US)], costs=COSTS)
        two = task_response_time(
            tasks[0], tasks, CYCLE, SLOT,
            interposing=[InterposingLoad(8_000 * US, 40 * US)] * 2,
            costs=COSTS)
        assert two.response_time > one.response_time


class TestPartitionSchedulable:
    def test_schedulable_without_interposing(self):
        report = partition_schedulable(simple_tasks(), CYCLE, SLOT)
        assert report.schedulable
        assert all(v.slack is not None and v.slack >= 0
                   for v in report.verdicts)

    def test_aggressive_interposing_breaks_deadlines(self):
        load = InterposingLoad(dmin=COSTS.effective_bottom_handler_cycles(
            40 * US), c_bh=40 * US)   # ~100% interference budget
        report = partition_schedulable(simple_tasks(), CYCLE, SLOT,
                                       interposing=[load], costs=COSTS)
        assert not report.schedulable

    def test_verdict_lookup(self):
        report = partition_schedulable(simple_tasks(), CYCLE, SLOT)
        assert report.verdict("hi").task.name == "hi"
        with pytest.raises(KeyError):
            report.verdict("nope")

    def test_overloaded_partition_reports_unschedulable(self):
        tasks = [TaskSpec("fat", 1, wcet=3_000 * US, period=4_000 * US)]
        report = partition_schedulable(tasks, CYCLE, SLOT)
        assert not report.schedulable
        assert report.verdicts[0].response_time is None


class TestMinAdmissibleDmin:
    def test_finds_boundary(self):
        dmin = min_admissible_dmin(simple_tasks(), CYCLE, SLOT,
                                   c_bh=40 * US, costs=COSTS)
        assert dmin is not None
        # at the returned d_min the partition is schedulable...
        ok = partition_schedulable(
            simple_tasks(), CYCLE, SLOT,
            [InterposingLoad(dmin, 40 * US)], COSTS)
        assert ok.schedulable
        # ...and one cycle below it, above the C'_BH floor, it is not
        assert dmin > max(1, COSTS.effective_bottom_handler_cycles(40 * US))
        bad = partition_schedulable(
            simple_tasks(), CYCLE, SLOT,
            [InterposingLoad(dmin - 1, 40 * US)], COSTS)
        assert not bad.schedulable

    def test_unschedulable_baseline_returns_none(self):
        tasks = [TaskSpec("fat", 1, wcet=3_000 * US, period=4_000 * US)]
        assert min_admissible_dmin(tasks, CYCLE, SLOT, c_bh=40 * US) is None


@settings(max_examples=60, deadline=None)
@given(
    dmin_a=st.integers(min_value=50_000, max_value=5_000_000),
    dmin_b=st.integers(min_value=50_000, max_value=5_000_000),
)
def test_property_response_time_monotone_in_dmin(dmin_a, dmin_b):
    """Larger d_min (less interposing) never increases response times.

    A diverging busy window (overload) counts as an infinite response
    time, which preserves the monotone ordering.
    """
    import math

    from repro.analysis.busy_window import NotSchedulableError

    assume(dmin_a != dmin_b)
    lo, hi = sorted((dmin_a, dmin_b))
    tasks = simple_tasks()

    def response(dmin):
        try:
            return task_response_time(
                tasks[0], tasks, CYCLE, SLOT,
                [InterposingLoad(dmin, 40 * US)], COSTS,
            ).response_time
        except NotSchedulableError:
            return math.inf

    assert response(hi) <= response(lo)


@st.composite
def victim_partitions(draw):
    """A 1-3 task partition with utilisation < 0.9 in one TDMA slot."""
    cycle = draw(st.integers(min_value=40_000, max_value=400_000))
    slot = draw(st.integers(min_value=cycle // 4, max_value=cycle))
    count = draw(st.integers(min_value=1, max_value=3))
    tasks = []
    for index in range(count):
        period = draw(st.integers(min_value=cycle // 2,
                                  max_value=16 * cycle))
        wcet = draw(st.integers(min_value=1,
                                max_value=max(1, int(0.9 * period / count))))
        tasks.append(TaskSpec(f"t{index}", priority=index, wcet=wcet,
                              period=period))
    assume(sum(task.wcet / task.period for task in tasks) < 0.9)
    c_bh = draw(st.integers(min_value=0, max_value=slot // 4))
    return tasks, cycle, slot, c_bh


@settings(max_examples=40, deadline=None)
@given(partition=victim_partitions())
def test_property_min_admissible_dmin_is_minimal(partition):
    """The binary search returns the boundary, not just a fitting d_min.

    Either no probed d_min fits (and then the upper probe is
    unschedulable), or the partition fits at the returned d_min and,
    above the C'_BH floor, does not fit one cycle below it.
    """
    tasks, cycle, slot, c_bh = partition

    def fits(dmin):
        return partition_schedulable(
            tasks, cycle, slot, [InterposingLoad(dmin, c_bh)], COSTS,
        ).schedulable

    dmin = min_admissible_dmin(tasks, cycle, slot, c_bh, COSTS)
    floor = max(1, COSTS.effective_bottom_handler_cycles(c_bh))
    if dmin is None:
        assert not fits(64 * cycle)
        return
    assert floor <= dmin <= 64 * cycle
    assert fits(dmin)
    if dmin > floor:
        assert not fits(dmin - 1)
