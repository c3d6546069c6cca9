"""The engine against a sorted-list reference engine.

Every latency, trace and snapshot digest depends only on the order in
which :class:`~repro.sim.engine.SimulationEngine` dispatches events:
``(time, seq)``, FIFO among simultaneous events, with stop sentinels
(negative seqs) first at their timestamp.  ``ReferenceEngine`` below
states that order in the plainest possible way — one list kept sorted,
eager removal on cancel — and a hypothesis-driven random program
(nested schedules, same-cycle reschedules, cancellations, ``stop()``
calls, stop sentinels, a bounded ``run_until`` and a full drain) must
behave identically on both: same callback log, clock, counters,
``dispatch_batches``, ``snapshot_state()`` and ``live_entries()``.
Half the examples drop the compaction floor to zero, so heap
compactions fire inside runs too.

The cold out-of-band insert paths (stop sentinels, snapshot
``restore_event`` with seqs out of arrival order) are pinned directly.
"""

from __future__ import annotations

import bisect
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.sim import engine as engine_module
from repro.sim.engine import COMPACTION_FLOOR, SimulationEngine


class ReferenceEngine:
    """Pending events as one list sorted by ``(time, seq)``; cancelling
    removes the entry at once, so ``pending_events`` is its length."""

    def __init__(self):
        self.queue: list[tuple] = []
        self.now = self.events_scheduled = self.events_executed = 0
        self.events_cancelled = self.dispatch_batches = 0
        self._sentinel_seq = -1
        self._stopped = False

    def _insert(self, time, seq, callback) -> SimpleNamespace:
        # (time, seq) is unique, so the sort never compares callbacks.
        entry = (time, seq, callback)
        bisect.insort(self.queue, entry)
        return SimpleNamespace(cancel=lambda: self._cancel(entry))

    def _cancel(self, entry) -> None:
        if entry in self.queue:
            self.queue.remove(entry)
            self.events_cancelled += 1

    def schedule(self, delay, callback) -> SimpleNamespace:
        self.events_scheduled += 1
        return self._insert(self.now + delay, self.events_scheduled - 1,
                            callback)

    def schedule_stop_at(self, time) -> SimpleNamespace:
        self._sentinel_seq -= 1
        return self._insert(time, self._sentinel_seq + 1, self.stop)

    def stop(self) -> None:
        self._stopped = True

    def run_until(self, horizon=None) -> int:
        self._stopped, executed = False, 0
        while self.queue and not self._stopped and (
                horizon is None or self.queue[0][0] <= horizon):
            time, _seq, callback = self.queue.pop(0)
            if time != self.now:
                self.now = time
                self.dispatch_batches += 1
            self.events_executed += 1
            executed += 1
            callback()
        if horizon is not None and not self._stopped:
            self.now = max(self.now, horizon)
        return executed

    def run(self) -> int:
        return self.run_until(None)

    @property
    def pending_events(self) -> int:
        return len(self.queue)

    def peek_next_time(self):
        return self.queue[0][0] if self.queue else None

    def snapshot_state(self) -> dict:
        return {"now": self.now, "seq": self.events_scheduled,
                "events_executed": self.events_executed,
                "events_cancelled": self.events_cancelled,
                "pending": self.pending_events}

    def live_entries(self) -> list[tuple]:
        return [(time, seq, None) for time, seq, _ in self.queue]


#: One root op: (delay, reschedules, follow_delay, cancel_pick,
#: stop_pick).  ``follow_delay`` may be 0 — a same-cycle reschedule.
#: ``cancel_pick`` cancels a previously returned handle (possibly one
#: already fired or cancelled, or a stop sentinel); ``stop_pick`` 0
#: makes the op's last callback call ``stop()``.
_OP = st.tuples(
    st.integers(0, 60),
    st.integers(0, 3),
    st.integers(0, 20),
    st.one_of(st.none(), st.integers(0, 255)),
    st.integers(0, 9),
)


def _execute_program(engine, program, sentinels, horizon: int) -> dict:
    """Run a scripted workload; return everything observable."""
    log: list[tuple] = []
    handles: list = []

    def spawn(tag: int, delay: int, repeats: int, follow_delay: int,
              cancel_pick, stop: bool) -> None:
        def callback() -> None:
            log.append((tag, repeats, engine.now))
            if repeats:
                spawn(tag, follow_delay, repeats - 1, follow_delay,
                      cancel_pick, stop)
            if cancel_pick is not None and handles:
                handles[cancel_pick % len(handles)].cancel()
            if stop and not repeats:
                engine.stop()

        handles.append(engine.schedule(delay, callback))

    for time in sentinels:
        handles.append(engine.schedule_stop_at(time))
    for tag, (delay, repeats, follow_delay, cancel_pick,
              stop_pick) in enumerate(program):
        spawn(tag, delay, repeats, follow_delay, cancel_pick, stop_pick == 0)

    def observe() -> tuple:
        return (engine.now, engine.events_executed, engine.events_scheduled,
                engine.events_cancelled, engine.pending_events,
                engine.dispatch_batches, engine.peek_next_time(),
                engine.snapshot_state(),
                [(time, seq) for time, seq, _ in engine.live_entries()])

    executed = [engine.run_until(horizon)]
    mid = observe()
    # Each run ends at the queue's end or at one stop; bounding the
    # drain keeps an engine that loses events from spinning forever.
    for _ in range(len(program) + len(sentinels) + 1):
        if engine.pending_events:
            executed.append(engine.run())
    return {"log": log, "executed": executed, "mid": mid, "end": observe()}


@settings(max_examples=80, deadline=None)
@given(program=st.lists(_OP, min_size=1, max_size=12),
       sentinels=st.lists(st.integers(0, 150), max_size=3),
       horizon=st.integers(0, 120),
       floor=st.sampled_from([0, COMPACTION_FLOOR]))
def test_engine_matches_reference_on_random_programs(program, sentinels,
                                                     horizon, floor):
    """Same program, same observable behaviour as the reference."""
    expected = _execute_program(ReferenceEngine(), program, sentinels,
                                horizon)
    with mock.patch.object(engine_module, "COMPACTION_FLOOR", floor):
        actual = _execute_program(SimulationEngine(), program, sentinels,
                                  horizon)
    assert actual == expected


def test_simultaneous_events_fire_in_schedule_order():
    engine = SimulationEngine()
    order: list[int] = []
    for tag in range(8):
        engine.schedule(100, lambda tag=tag: order.append(tag))
    engine.run()
    assert order == list(range(8))
    # The whole timestamp drained as one batch: a single clock write.
    assert engine.dispatch_batches == 1
    assert engine.now == 100


def test_stop_sentinel_fires_before_same_time_events():
    """Negative-seq sentinels beat ordinary events at their timestamp."""
    engine = SimulationEngine()
    fired: list[str] = []
    engine.schedule(10, lambda: fired.append("ev10"))
    engine.schedule(5, lambda: fired.append("ev5"))
    engine.schedule_stop_at(10)
    engine.run()
    assert fired == ["ev5"]
    assert engine.now == 10
    assert engine.pending_events == 1
    engine.run()                       # resume past the spent sentinel
    assert fired == ["ev5", "ev10"]
    assert engine.pending_events == 0


def test_restore_event_out_of_order_keeps_fifo():
    """The snapshot-restore insert path must order by original seq."""
    engine = SimulationEngine()
    engine.restore_state({"now": 50, "seq": 10, "events_executed": 0,
                          "events_cancelled": 0, "pending": 3})
    order: list[int] = []
    # Restored in arrival order 7, 2, 5 — must fire as 2, 5, 7.
    for seq in (7, 2, 5):
        engine.restore_event(60, seq, lambda seq=seq: order.append(seq))
    assert [(t, s) for t, s, _ in engine.live_entries()] == \
        [(60, 2), (60, 5), (60, 7)]
    engine.run()
    assert order == [2, 5, 7]
    assert engine.now == 60
