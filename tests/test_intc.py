"""Tests for the interrupt controller (latching, masking, priorities)."""

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.intc import InterruptController
from repro.sim.trace import TraceKind, TraceRecorder


def make_intc(num_lines=8):
    engine = SimulationEngine()
    trace = TraceRecorder()
    intc = InterruptController(engine, num_lines=num_lines, trace=trace)
    return engine, intc, trace


class TestDelivery:
    def test_unmasked_raise_dispatches_immediately(self):
        _, intc, _ = make_intc()
        seen = []

        def dispatcher(line):
            intc.mask_all()
            intc.acknowledge(line)
            seen.append(line)

        intc.set_dispatcher(dispatcher)
        intc.raise_line(3)
        assert seen == [3]

    def test_masked_raise_is_latched(self):
        _, intc, _ = make_intc()
        seen = []

        def dispatcher(line):
            intc.mask_all()
            intc.acknowledge(line)
            seen.append(line)

        intc.set_dispatcher(dispatcher)
        intc.mask_all()
        intc.raise_line(2)
        assert seen == []
        assert intc.is_pending(2)
        intc.unmask_all()
        assert seen == [2]
        assert not intc.is_pending(2)

    def test_priority_lowest_line_first(self):
        _, intc, _ = make_intc()
        seen = []

        def dispatcher(line):
            intc.acknowledge(line)
            if not seen:
                # handle-and-return without masking: delivery loop
                # should pick the next pending line in priority order
                pass
            seen.append(line)
            if len(seen) == 2:
                intc.mask_all()

        intc.set_dispatcher(dispatcher)
        intc.mask_all()
        intc.raise_line(5)
        intc.raise_line(1)
        intc.unmask_all()
        assert seen == [1, 5]

    def test_coalescing_counts(self):
        _, intc, _ = make_intc()
        intc.set_dispatcher(lambda line: None)  # never called: masked
        intc.mask_all()
        intc.raise_line(4)
        intc.raise_line(4)
        intc.raise_line(4)
        assert intc.raise_count(4) == 3
        assert intc.coalesced_count(4) == 2

    def test_coalesced_trace_event(self):
        engine, intc, trace = make_intc()
        intc.mask_all()
        intc.raise_line(4)
        intc.raise_line(4)
        kinds = [event.kind for event in trace]
        assert kinds == [TraceKind.IRQ_RAISED, TraceKind.IRQ_COALESCED]

    def test_delivered_count(self):
        _, intc, _ = make_intc()

        def dispatcher(line):
            intc.mask_all()
            intc.acknowledge(line)

        intc.set_dispatcher(dispatcher)
        intc.raise_line(1)
        intc.unmask_all()
        intc.raise_line(1)
        assert intc.delivered_count(1) == 2


class TestLineControl:
    def test_disabled_line_stays_latched(self):
        _, intc, _ = make_intc()
        seen = []

        def dispatcher(line):
            intc.mask_all()
            intc.acknowledge(line)
            seen.append(line)

        intc.set_dispatcher(dispatcher)
        intc.disable_line(2)
        intc.raise_line(2)
        assert seen == []
        intc.enable_line(2)
        assert seen == [2]

    def test_line_out_of_range(self):
        _, intc, _ = make_intc(num_lines=4)
        with pytest.raises(ValueError):
            intc.raise_line(4)
        with pytest.raises(ValueError):
            intc.raise_line(-1)

    @pytest.mark.parametrize("method", [
        "raise_line", "acknowledge", "line_enabled", "is_pending",
        "enable_line", "disable_line", "account_slot_deliveries",
        "raise_count", "coalesced_count", "delivered_count",
    ])
    def test_every_line_entry_point_checks_range(self, method):
        _, intc, _ = make_intc(num_lines=4)
        for line in (4, -1):
            with pytest.raises(ValueError, match="out of range"):
                getattr(intc, method)(line)
        assert intc.raise_count(0) == intc.delivered_count(0) == 0

    def test_needs_at_least_one_line(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            InterruptController(engine, num_lines=0)

    def test_livelock_detection(self):
        _, intc, _ = make_intc()
        # A dispatcher that neither acknowledges nor masks would spin.
        intc.set_dispatcher(lambda line: None)
        with pytest.raises(RuntimeError):
            intc.raise_line(1)

    def test_masked_property(self):
        _, intc, _ = make_intc()
        assert not intc.masked
        intc.mask_all()
        assert intc.masked
