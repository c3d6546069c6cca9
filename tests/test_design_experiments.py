"""Tests for the design workflow and depth-ablation experiments."""

import itertools

import pytest

from repro.analysis import schedulability
from repro.experiments.ablation import (
    render_depth_ablation,
    run_depth_ablation,
)
from repro.experiments.design import _task_specs, render_design, run_design
from repro.hypervisor.config import CostModel
from repro.sim.clock import Clock


class TestDesignWorkflow:
    @pytest.fixture(scope="class")
    def result(self):
        return run_design(irq_count=250)

    def test_analysis_finds_admissible_dmin(self, result):
        assert result.analytic_min_dmin_us > 0
        assert result.analytic_schedulable_at_min

    def test_simulation_confirms(self, result):
        assert result.simulated_misses_at_min == 0
        assert result.simulation_confirms_analysis

    def test_interposing_actually_happened(self, result):
        assert result.windows_opened > 0

    def test_bound_dominates_simulation(self, result):
        assert (result.simulated_max_response_us
                <= result.analytic_response_bound_us)

    def test_render(self, result):
        text = render_design(result)
        assert "minimum admissible d_min" in text
        assert "yes" in text


def test_min_admissible_dmin_work_count(monkeypatch):
    """Pin the interference evaluations of the design d_min search.

    The count is exact for the fixed victim task set, so it is the
    regression signal for the busy-window solver's work (each q is
    warm-started from W(q-1); solving every q from q*C took 918,626).
    """
    calls = itertools.count()
    original = schedulability.response_time

    def counted_response_time(own_cost, model, interference, *args,
                              **kwargs):
        def counted(window, tick=calls.__next__):
            tick()
            return interference(window)
        return original(own_cost, model, counted, *args, **kwargs)

    monkeypatch.setattr(schedulability, "response_time",
                        counted_response_time)
    clock = Clock()
    us = clock.us_to_cycles
    dmin = schedulability.min_admissible_dmin(
        _task_specs(clock), us(4_000), us(2_000), us(40.0), CostModel())
    assert next(calls) == 95_535
    assert dmin == 76_020
    assert clock.cycles_to_us(dmin) == pytest.approx(380.1)


class TestDepthAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_depth_ablation(activation_count=1_200)

    def test_deep_table_wins_on_bursty_trace(self, result):
        assert result.deep_monitor_wins

    def test_same_irq_counts(self, result):
        assert len(result.deep.records) == len(result.shallow.records)

    def test_shallow_denies_bursts(self, result):
        assert (result.shallow.mode_counts.get("delayed", 0)
                > result.deep.mode_counts.get("delayed", 0))

    def test_table_structure(self, result):
        assert len(result.deep_table_us) == 5
        assert result.deep_table_us == sorted(result.deep_table_us)
        # the shallow d_min is the deep table's asymptotic rate
        assert result.shallow_dmin_us == pytest.approx(
            result.deep_table_us[-1] / 5, rel=0.01
        )

    def test_render(self, result):
        text = render_depth_ablation(result)
        assert "abl-depth" in text
