"""Name of the simulation engine's event queue.

:class:`~repro.sim.engine.SimulationEngine` keeps pending events in one
binary heap; this module only resolves the name it is recorded under
in run manifests, artifact-store metadata and ``--bench-json``
records (``"heap"``).  History written before the engine had a single
queue may name another backend (``bucket``, ``array``); all of them
dispatched in the same ``(time, seq)`` order.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import SimulationEngine


def resolve_backend_name(explicit: Optional[str] = None) -> str:
    """The engine's queue name (``explicit`` is accepted for callers
    that pass ``None``; there is nothing to choose between)."""
    return SimulationEngine.backend_name
