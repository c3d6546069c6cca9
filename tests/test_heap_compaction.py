"""Heap compaction under timer churn (engine lazy-cancellation GC).

Timer reprogramming cancels lazily: dead entries stay in the heap
until a compaction rebuilds it.  These tests pin the two guarantees
the compactor makes — the heap stays bounded under unbounded
program/cancel churn, inside a run as well as between runs, and the
exact accounting (``pending_events``, ``peek_next_time``) plus
dispatch order are unaffected by when compactions happen.

Compaction triggers at *cancel* time (the only operation that creates
a dead entry), once the cancellations since the last compaction exceed
``COMPACTION_FLOOR`` and make up more than half of the stored entries.
That count is an upper bound on the dead entries still stored
(dispatch pops dead entries without decrementing it), which can only
make the heap compact earlier, never later.
"""

from repro.sim.engine import COMPACTION_FLOOR, SimulationEngine
from repro.sim.intc import InterruptController
from repro.sim.timers import OneShotTimer


def test_reprogram_churn_keeps_queue_depth_bounded():
    engine = SimulationEngine()
    intc = InterruptController(engine)
    timer = OneShotTimer(engine, intc, line=0)
    for i in range(10_000):
        timer.program(100 + (i % 7))
    # Exactly one live deadline; the 9_999 dead entries were compacted
    # away whenever they outnumbered both the floor and the live count.
    assert engine.pending_events == 1
    assert engine.heap_depth <= 2 * (COMPACTION_FLOOR + 1)
    assert engine.compactions > 0
    assert timer.armed


def test_program_cancel_churn_with_no_live_events():
    engine = SimulationEngine()
    intc = InterruptController(engine)
    timer = OneShotTimer(engine, intc, line=0)
    for _ in range(5_000):
        timer.program(10)
        timer.cancel()
    assert engine.pending_events == 0
    assert engine.peek_next_time() is None
    assert engine.heap_depth <= 2 * (COMPACTION_FLOOR + 1)
    assert engine.compactions > 0


def test_peek_and_pending_exact_across_compaction():
    engine = SimulationEngine()
    fired = []
    handles = [engine.schedule(1_000 + i, lambda i=i: fired.append(i))
               for i in range(200)]
    for handle in handles[:150]:
        handle.cancel()
    # The 101st cancel saw 2 * 101 > 200 stored entries and compacted;
    # the 49 dead entries cancelled after it stay lazily.
    assert engine.compactions >= 1
    assert engine.pending_events == 50
    assert engine.heap_depth - engine.pending_events <= COMPACTION_FLOOR
    engine.schedule(5_000, lambda: fired.append(-1))
    assert engine.pending_events == 51
    assert engine.peek_next_time() == 1_150
    executed = engine.run()
    assert executed == 51
    assert fired == list(range(150, 200)) + [-1]
    assert engine.pending_events == 0


def test_compaction_preserves_fifo_order_of_simultaneous_events():
    engine = SimulationEngine()
    order = []
    keep = [engine.schedule(500, lambda i=i: order.append(i))
            for i in range(10)]
    churn = [engine.schedule(400, lambda: order.append(-1))
             for _ in range(80)]
    for handle in churn:
        handle.cancel()      # the 65th cancel (2 * 65 > 90 stored) compacts
    assert engine.compactions >= 1
    engine.schedule(600, lambda: order.append(99))
    engine.run()
    assert order == list(range(10)) + [99]
    assert all(handle.pending is False for handle in keep)


def test_in_run_reprogram_churn_keeps_queue_depth_bounded():
    """Churn from inside one ``run_until`` compacts too.

    The run loops settle ``pending_events`` only when they return, so
    a trigger computed as ``heap_depth - pending`` over-counts the
    live entries by every event already dispatched in the run and
    never fires; the cancellation count does not depend on it.
    """
    engine = SimulationEngine()
    intc = InterruptController(engine)
    timer = OneShotTimer(engine, intc, line=0)
    remaining = [20_000]
    peak = [0]

    def reprogram() -> None:
        timer.program(1_000_000)     # cancels the previous deadline
        peak[0] = max(peak[0], engine.heap_depth)
        remaining[0] -= 1
        if remaining[0]:
            engine.schedule(1, reprogram)

    engine.schedule(1, reprogram)
    engine.run_until(30_000)
    assert remaining[0] == 0
    assert engine.pending_events == 1
    assert engine.compactions > 0
    assert peak[0] <= 2 * (COMPACTION_FLOOR + 1)
    assert timer.armed
