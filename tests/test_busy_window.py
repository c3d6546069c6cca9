"""Tests for the busy-window fixed point and response-time analysis
(Eqs. 3–5)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.busy_window import (
    NotSchedulableError,
    busy_time,
    response_time,
)
from repro.analysis.event_models import PeriodicEventModel
from repro.analysis.tdma import tdma_interference


class TestBusyTime:
    def test_no_interference(self):
        assert busy_time(1, 10, lambda w: 0) == 10
        assert busy_time(5, 10, lambda w: 0) == 50

    def test_constant_interference(self):
        assert busy_time(2, 10, lambda w: 7) == 27

    def test_classic_rta_fixed_point(self):
        # Analysed task C=2; interferer C=1, P=4 (textbook example):
        # W = 2 + ceil(W/4)*1 -> W = 3
        interferer = PeriodicEventModel(4)
        w = busy_time(1, 2, lambda win: interferer.eta_plus(win) * 1)
        assert w == 3

    def test_two_interferers(self):
        # C=5, hp1: C=2,P=10; hp2: C=3,P=20
        # W = 5 + 2*ceil(W/10) + 3*ceil(W/20) -> W=10
        hp1 = PeriodicEventModel(10)
        hp2 = PeriodicEventModel(20)
        w = busy_time(1, 5, lambda win: 2 * hp1.eta_plus(win)
                      + 3 * hp2.eta_plus(win))
        assert w == 10

    def test_divergence_detected(self):
        # Interference grows faster than the window: never converges.
        with pytest.raises(NotSchedulableError):
            busy_time(1, 10, lambda w: w + 1, horizon=10_000)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            busy_time(0, 10, lambda w: 0)

    def test_invalid_cost(self):
        with pytest.raises(ValueError):
            busy_time(1, -1, lambda w: 0)


class TestResponseTime:
    def test_single_activation(self):
        model = PeriodicEventModel(100)
        result = response_time(10, model, lambda w: 0)
        assert result.response_time == 10
        assert result.q_max == 1
        assert result.busy_times == (10,)

    def test_multi_activation_busy_window(self):
        # C=60, P=100: W(1)=60 <= delta(2)=100 -> single activation.
        model = PeriodicEventModel(100)
        result = response_time(60, model, lambda w: 0)
        assert result.q_max == 1
        assert result.response_time == 60

    def test_overload_spans_activations(self):
        # C=70 with an interferer making W(1)=110 > P=100 so the busy
        # window spans multiple activations:
        # W(q) = 70q + 40 (one-shot blocking interference)
        model = PeriodicEventModel(100)
        result = response_time(70, model, lambda w: 40)
        # W(1)=110 > delta(2)=100 -> q=2: W(2)=180 <= delta(3)=200 stop.
        assert result.q_max == 2
        assert result.response_time == max(110 - 0, 180 - 100)

    def test_critical_q(self):
        model = PeriodicEventModel(100)
        result = response_time(70, model, lambda w: 40)
        assert result.critical_q == 1

    def test_busy_time_accessor(self):
        model = PeriodicEventModel(100)
        result = response_time(70, model, lambda w: 40)
        assert result.busy_time(1) == 110
        assert result.busy_time(2) == 180

    def test_q_limit(self):
        model = PeriodicEventModel(10)
        with pytest.raises(NotSchedulableError):
            # C == P: busy window never ends within the limit
            response_time(10, model, lambda w: 5, q_limit=50)


@settings(max_examples=100, deadline=None)
@given(
    cost=st.integers(min_value=1, max_value=50),
    period=st.integers(min_value=51, max_value=500),
    hp_cost=st.integers(min_value=0, max_value=25),
    hp_period=st.integers(min_value=26, max_value=500),
)
def test_property_response_time_bounds_busy_times(cost, period, hp_cost,
                                                  hp_period):
    """R >= W(q) - δ(q) for every analysed q, and the task is
    schedulable when total utilization < 1."""
    from hypothesis import assume
    assume(cost / period + hp_cost / hp_period < 0.95)
    model = PeriodicEventModel(period)
    interferer = PeriodicEventModel(hp_period)
    result = response_time(
        cost, model, lambda w: hp_cost * interferer.eta_plus(w)
    )
    for q in range(1, result.q_max + 1):
        assert result.response_time >= result.busy_time(q) - model.delta_minus(q)
    assert result.response_time >= cost


@st.composite
def monotone_interference(draw):
    """Random monotone interference: periodic terms plus a TDMA term.

    Returns the callable and its long-run rate (interference per cycle
    of window), so callers can keep the busy window bounded.
    """
    terms = draw(st.lists(
        st.tuples(st.integers(min_value=1, max_value=20),
                  st.integers(min_value=40, max_value=400)),
        max_size=3,
    ))
    cycle = draw(st.integers(min_value=10, max_value=500))
    slot = draw(st.integers(min_value=cycle // 2, max_value=cycle))

    def interference(window):
        total = tdma_interference(window, cycle, slot)
        for cost, period in terms:
            total += -(-window // period) * cost
        return total

    rate = (cycle - slot) / cycle + sum(c / p for c, p in terms)
    return interference, rate


@settings(max_examples=150, deadline=None)
@given(
    q=st.integers(min_value=1, max_value=6),
    cost=st.integers(min_value=0, max_value=30),
    curve=monotone_interference(),
    data=st.data(),
)
def test_property_warm_start_equals_cold(q, cost, curve, data):
    """Any start at or below the least fixed point lands on it."""
    interference, rate = curve
    assume(rate < 0.95)
    cold = busy_time(q, cost, interference)
    start = data.draw(st.integers(min_value=0, max_value=cold))
    assert busy_time(q, cost, interference, start=start) == cold
    # the precondition's boundary: starting on the fixed point itself
    assert busy_time(q, cost, interference, start=cold) == cold


def cold_response_time(own_cost, model, interference):
    """Eqs. 3-5 with every q solved from q * own_cost (no warm start)."""
    busy_times = []
    worst, critical_q, q = 0, 1, 1
    while True:
        w = busy_time(q, own_cost, interference)
        busy_times.append(w)
        candidate = w - model.delta_minus(q)
        if candidate > worst:
            worst, critical_q = candidate, q
        if model.delta_minus(q + 1) > w:
            return worst, q, tuple(busy_times), critical_q
        q += 1


@settings(max_examples=150, deadline=None)
@given(
    cost=st.integers(min_value=1, max_value=60),
    period=st.integers(min_value=20, max_value=600),
    jitter=st.integers(min_value=0, max_value=600),
    curve=monotone_interference(),
)
def test_property_warm_response_time_matches_cold(cost, period, jitter,
                                                   curve):
    """Warm-started q iterations change no W(q), q_max, critical_q or R."""
    interference, rate = curve
    assume(rate + cost / period < 0.95)
    model = PeriodicEventModel(period, jitter=jitter)
    result = response_time(cost, model, interference)
    worst, q_max, busy_times, critical_q = cold_response_time(
        cost, model, interference)
    assert result.busy_times == busy_times
    assert result.response_time == worst
    assert result.q_max == q_max
    assert result.critical_q == critical_q
