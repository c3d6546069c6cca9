"""Busy-window (multiple-event busy period) analysis — Eqs. (3)–(5).

The q-event busy time W_i(q) is the fixed point of

    W_i(q) = q * C_i + sum_j C_j * η⁺_j(W_i(q))          (Eq. 3)

iterated until convergence.  The number of activations that must be
checked is

    Q_i = max { n : forall q <= n : δ⁻_i(q) <= W_i(q-1) }  (Eq. 4)

and the worst-case response time follows as

    R_i = max_{q in [1, Q_i]} ( W_i(q) - δ⁻_i(q) )         (Eq. 5)

The interference term is pluggable (a callable of the window size), so
the same solver serves Eq. 3, the TDMA-aware Eq. 11 and the interposed
Eq. 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.event_models import EventModel
from repro.analysis.memo import memoize_model


class NotSchedulableError(RuntimeError):
    """The busy-window iteration diverged: demand exceeds capacity."""


def busy_time(q: int, own_cost: int,
              interference: Callable[[int], int],
              horizon: int = 2**48,
              max_iterations: int = 100_000,
              start: int = 0) -> int:
    """Solve the fixed point W(q) = q * own_cost + interference(W(q)).

    ``interference`` must be monotonically non-decreasing in the window
    size; the iteration then converges to the least fixed point or
    exceeds ``horizon`` (treated as unschedulable).

    ``start`` warm-starts the iteration at ``max(q * own_cost, 1,
    start)`` instead of at ``q * own_cost``.  It must not exceed the
    least fixed point: iterating a monotone function from any point
    below its least fixed point climbs to that same fixed point, so
    the result equals the cold solve, in fewer steps.  A ``start``
    past the least fixed point stops at the first window whose demand
    fits (the undershoot branch): a safe upper bound on the least
    fixed point, not the point itself.
    """
    if q <= 0:
        raise ValueError(f"q must be >= 1, got {q}")
    if own_cost < 0:
        raise ValueError(f"cost must be >= 0, got {own_cost}")
    base = q * own_cost
    w = max(base, 1, start)
    for _ in range(max_iterations):
        nxt = base + interference(w)
        if nxt > horizon:
            raise NotSchedulableError(
                f"busy window exceeded horizon {horizon} for q={q}"
            )
        if nxt == w:
            return w
        if nxt < w:
            # Undershoot: the demand already fits in w.  Cold, only a
            # non-monotone interference function gets here; warm, it
            # also means ``start`` overshot the least fixed point.
            return w
        w = nxt
    raise NotSchedulableError(
        f"busy-window iteration did not converge within {max_iterations} steps"
    )


@dataclass(frozen=True)
class ResponseTimeResult:
    """Result of a full busy-window response-time analysis."""

    response_time: int
    q_max: int
    #: W(q) for q = 1 .. q_max (index 0 is q=1).
    busy_times: tuple[int, ...]
    #: The activation index q attaining the worst case.
    critical_q: int

    def busy_time(self, q: int) -> int:
        return self.busy_times[q - 1]


def response_time(own_cost: int, model: EventModel,
                  interference: Callable[[int], int],
                  q_limit: int = 10_000,
                  horizon: int = 2**48,
                  memoize: bool = True) -> ResponseTimeResult:
    """Worst-case response time per Eqs. (3)–(5).

    ``model`` provides the analysed task's own activation pattern
    (δ⁻ for Eqs. 4/5); ``interference`` the combined interference term
    inside the window (everything except the ``q * own_cost`` part).
    ``memoize=False`` evaluates the raw model on every call (the
    cold baseline of the analysis A/B microbenchmark).
    """
    if memoize:
        model = memoize_model(model)
    busy_times: list[int] = []
    worst = 0
    critical_q = 1
    q = 1
    # δ⁻(q) is evaluated once per q and carried into the next
    # iteration, where it is this iteration's Eq. 4 check value.
    delta_q = model.delta_minus(1)
    # W(q) >= W(q-1) + own_cost for monotone interference (the q-event
    # demand is the (q-1)-event demand plus one more own_cost), so each
    # q's fixed point is climbed from there rather than from q * C.
    w = 0
    while True:
        w = busy_time(q, own_cost, interference, horizon=horizon,
                      start=w + own_cost)
        busy_times.append(w)
        candidate = w - delta_q
        if candidate > worst or q == 1:
            worst = max(worst, candidate)
            if candidate == worst:
                critical_q = q
        # Eq. 4: the (q+1)-th activation belongs to the same busy
        # window iff it can arrive no later than the q-event busy time.
        delta_next = model.delta_minus(q + 1)
        if delta_next > w:
            break
        q += 1
        delta_q = delta_next
        if q > q_limit:
            raise NotSchedulableError(
                f"busy window spans more than {q_limit} activations; "
                "the task set is overloaded or q_limit is too small"
            )
    return ResponseTimeResult(
        response_time=worst,
        q_max=q,
        busy_times=tuple(busy_times),
        critical_q=critical_q,
    )
