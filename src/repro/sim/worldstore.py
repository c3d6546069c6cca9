"""Layered copy-on-write store for world snapshots.

:mod:`repro.sim.snapshot` (PR 4) made shared-prefix execution
possible, but every fork still materializes a *full* copy of the world
state: deep scenario trees — learning phase → per-``d_min`` branch →
per-load-bound branch → per-seed leaf — pay O(world) time and memory
at every branch point even though siblings differ in one policy
object.  This module removes that wall:

* a **fragment store** interns each component state as canonical JSON
  text keyed by its SHA-256 — identical states (the engine counters of
  a hundred siblings, the shared interarrival array) are stored once;
* a **layer** maps part names to fragment digests; a fork is a thin
  child layer recording only the parts that changed, falling through
  to its parent for everything else.  Layers themselves are interned
  by content, so identical sibling forks collapse to one layer;
* a :class:`LayeredSnapshot` presents a layer stack as the plain
  :class:`~repro.sim.snapshot.WorldSnapshot` interface — same
  ``state`` dict, same ``digest()`` — so restore, campaign caching and
  pickling are unchanged.  **Digests are byte-identical to the
  deep-copy path**: the canonical JSON of the assembled state is
  reconstructed fragment by fragment and must equal
  :func:`repro.io.canonical_json` of the state exactly.

Dirty tracking uses two independent mechanisms layered on the
existing ``snapshot_state``/``restore_from_snapshot`` protocol:

* the engine's :attr:`~repro.sim.engine.SimulationEngine
  .activity_fingerprint` proves, when unchanged since the capture
  basis, that no event was scheduled/dispatched/cancelled — event
  ownership (heap claims) is exactly as captured, so the store may
  re-serialize parts *individually* without re-running the global
  claim/``assert_drained`` quiescence audit;
* per-component **change epochs** (``snapshot_epoch`` counters bumped
  by every public mutator of the trace recorder, interference ledger,
  latency columns and timers) let the heavyweight append-only parts
  skip re-serialization entirely when untouched.  Parts without an
  epoch are simply re-serialized and digest-compared — correct for
  arbitrary mutation, O(part) instead of O(world).

The module stays domain-free like :mod:`repro.sim.snapshot`: the part
split is structural (top-level scalars, one part per ``world`` sub-key
as returned by the world's ``snapshot_part_names()``, one per device),
never hypervisor-specific.

Fragments live in memory for the store's lifetime; experiment forks
share one store per process (:func:`default_store`).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.io import canonical_digest, canonical_json, text_digest
from repro.sim.snapshot import (
    SNAPSHOT_FORMAT,
    SnapshotContext,
    SnapshotError,
    WorldSnapshot,
    capture_world,
    class_path,
    restore_world,
)

#: Keys of a snapshot ``state`` dict that are stored as their own parts.
_TOP_SCALARS = ("format", "world_class", "pending")

def resolve_store_budget(explicit: "int | None" = None) -> None:
    """Always ``None``: the store has no resident-bytes budget.

    Kept only because the perfbench engine probe reports it.
    """
    return None


class WorldStoreStats:
    """Sharing counters of one store (read by its tests and perfbench)."""

    __slots__ = ("fragments_stored", "fragment_dedup_hits", "bytes_stored",
                 "bytes_shared", "layers_created", "layer_dedup_hits",
                 "fast_captures", "full_captures", "data_forks",
                 "parts_reused", "parts_recaptured")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class WorldLayer:
    """One immutable level of the copy-on-write stack.

    ``delta`` maps part keys (``"world.<name>"``, ``"devices.<name>"``
    or a top-level scalar key) to fragment digests; reads of keys not
    in the delta fall through to ``parent``.  Layers are interned by
    the digest of their *resolved* mapping, so two forks that end up
    with identical content are the same object regardless of the path
    that produced them.
    """

    __slots__ = ("parent", "delta", "digest", "depth", "_mapping")

    def __init__(self, parent: Optional["WorldLayer"],
                 delta: dict[str, str], digest: str):
        self.parent = parent
        self.delta = delta
        self.digest = digest
        self.depth = 0 if parent is None else parent.depth + 1
        self._mapping: Optional[dict[str, str]] = None

    def mapping(self) -> dict[str, str]:
        """Resolved ``part key -> fragment digest`` view of the stack."""
        if self._mapping is None:
            if self.parent is None:
                resolved = dict(self.delta)
            else:
                resolved = dict(self.parent.mapping())
                resolved.update(self.delta)
            self._mapping = resolved
        return self._mapping


class LayeredSnapshot:
    """A :class:`WorldSnapshot`-compatible view over a layer stack.

    ``state`` materializes lazily from the store's *shared* Python
    values (not a JSON round-trip, so tuples and non-string dict keys
    survive exactly as the components produced them); restore treats
    snapshot state as read-only, so sharing values across siblings is
    safe.  Pickling reduces to a plain :class:`WorldSnapshot` — a
    campaign worker or the disk cache never drags the store along.
    """

    __slots__ = ("store", "layer", "_state", "_digest")

    def __init__(self, store: "WorldStore", layer: WorldLayer):
        self.store = store
        self.layer = layer
        self._state: Optional[dict] = None
        self._digest: Optional[str] = None

    @property
    def state(self) -> dict:
        if self._state is None:
            world: dict[str, Any] = {}
            devices: dict[str, Any] = {}
            top: dict[str, Any] = {}
            for key, digest in self.layer.mapping().items():
                value = self.store.fragment_value(digest)
                if key.startswith("world."):
                    world[key[len("world."):]] = value
                elif key.startswith("devices."):
                    devices[key[len("devices."):]] = value
                else:
                    top[key] = value
            top["world"] = world
            top["devices"] = devices
            self._state = top
        return self._state

    def digest(self) -> str:
        """Byte-identical to ``WorldSnapshot(self.state).digest()``.

        Assembled from the interned canonical fragments instead of
        re-serializing the whole state: the JSON of a dict node with
        string keys is exactly the sorted, comma-joined concatenation
        of ``key:fragment`` pieces, so no part is ever re-encoded.
        """
        if self._digest is None:
            self._digest = self.store.layer_root_digest(self.layer)
        return self._digest

    def __reduce__(self):
        return (WorldSnapshot, (self.state,))


class ForkBasis:
    """What a capture must be compared against to go fast.

    Records the layer a live world was restored from (or captured
    into), the engine activity fingerprint at that instant, and the
    change epochs of every epoch-aware part.  A later capture with an
    unchanged engine fingerprint only re-examines parts whose epoch
    moved (or that have no epoch), instead of re-auditing the world.
    """

    __slots__ = ("store", "layer", "engine_fingerprint", "epochs",
                 "device_names")

    def __init__(self, store: "WorldStore", layer: WorldLayer,
                 engine_fingerprint: tuple, epochs: dict[str, int],
                 device_names: tuple[str, ...]):
        self.store = store
        self.layer = layer
        self.engine_fingerprint = engine_fingerprint
        self.epochs = epochs
        self.device_names = device_names


class WorldStore:
    """Content-addressed fragment + layer store shared by a fork tree.

    Every interned fragment stays in memory for the store's lifetime.
    """

    def __init__(self) -> None:
        # digest -> (canonical text, shared Python value)
        self._fragments: dict[str, tuple[str, Any]] = {}
        # layer-mapping digest -> interned WorldLayer
        self._layers: dict[str, WorldLayer] = {}
        # layer digest -> whole-state digest (assembly memo)
        self._root_digests: dict[str, str] = {}
        self.stats = WorldStoreStats()

    # -- fragments ----------------------------------------------------

    def put_fragment(self, value: Any) -> str:
        """Intern ``value``; returns its content digest."""
        text = canonical_json(value)
        digest = text_digest(text)
        if digest in self._fragments:
            self.stats.fragment_dedup_hits += 1
            self.stats.bytes_shared += len(text)
        else:
            self._fragments[digest] = (text, value)
            self.stats.fragments_stored += 1
            self.stats.bytes_stored += len(text)
        return digest

    def fragment_text(self, digest: str) -> str:
        return self._fragments[digest][0]

    def fragment_value(self, digest: str) -> Any:
        return self._fragments[digest][1]

    # -- layers -------------------------------------------------------

    def make_layer(self, parent: Optional[WorldLayer],
                   delta: dict[str, str]) -> WorldLayer:
        """Intern a layer; identical content returns the same object."""
        for key in delta:
            if not isinstance(key, str):
                raise SnapshotError(
                    f"layer part keys must be strings, got {key!r}")
        if parent is not None and not delta:
            self.stats.layer_dedup_hits += 1
            return parent
        if parent is None:
            resolved = dict(delta)
        else:
            resolved = dict(parent.mapping())
            resolved.update(delta)
        digest = canonical_digest(resolved)
        layer = self._layers.get(digest)
        if layer is not None:
            self.stats.layer_dedup_hits += 1
            return layer
        layer = WorldLayer(parent, dict(delta), digest)
        layer._mapping = resolved
        self._layers[digest] = layer
        self.stats.layers_created += 1
        return layer

    @property
    def layer_count(self) -> int:
        return len(self._layers)

    @property
    def fragment_count(self) -> int:
        return len(self._fragments)

    def layer_root_digest(self, layer: WorldLayer) -> str:
        """SHA-256 of the full canonical state, assembled from fragments."""
        memo = self._root_digests.get(layer.digest)
        if memo is not None:
            return memo
        world_items: list[tuple[str, str]] = []
        device_items: list[tuple[str, str]] = []
        top_items: list[tuple[str, str]] = []
        for key, digest in layer.mapping().items():
            text = self.fragment_text(digest)
            if key.startswith("world."):
                world_items.append((key[len("world."):], text))
            elif key.startswith("devices."):
                device_items.append((key[len("devices."):], text))
            else:
                top_items.append((key, text))
        top_items.append(("world", _join_object(world_items)))
        top_items.append(("devices", _join_object(device_items)))
        root = text_digest(_join_object(top_items))
        self._root_digests[layer.digest] = root
        return root


def _join_object(items: list[tuple[str, str]]) -> str:
    """Assemble a JSON object from ``(string key, encoded value)`` pairs.

    Byte-identical to :func:`repro.io.canonical_json` of the dict:
    both sort by the raw string key and join with ``,``/``:`` and no
    whitespace.
    """
    pieces = [f"{canonical_json(key)}:{text}"
              for key, text in sorted(items)]
    return "{" + ",".join(pieces) + "}"


_DEFAULT_STORE: Optional[WorldStore] = None


def default_store() -> WorldStore:
    """The per-process store shared by experiment warm-world forks."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = WorldStore()
    return _DEFAULT_STORE


def _world_parts(world: Any) -> Optional[tuple]:
    """``(part_names, epochs)`` when the world speaks the part protocol."""
    names = getattr(world, "snapshot_part_names", None)
    part = getattr(world, "snapshot_part", None)
    check = getattr(world, "snapshot_check", None)
    if names is None or part is None or check is None:
        return None
    epochs = getattr(world, "snapshot_epochs", None)
    return tuple(names()), (dict(epochs()) if epochs is not None else {})


def _device_epoch(device: Any) -> Optional[int]:
    return getattr(device, "snapshot_epoch", None)


def _collect_epochs(world: Any, devices: dict[str, Any]) -> dict[str, int]:
    """Current change epochs keyed by part key, for a fresh basis."""
    epochs: dict[str, int] = {}
    world_epochs = getattr(world, "snapshot_epochs", None)
    if world_epochs is not None:
        for name, epoch in world_epochs().items():
            epochs[f"world.{name}"] = epoch
    for name, device in devices.items():
        epoch = _device_epoch(device)
        if epoch is not None:
            epochs[f"devices.{name}"] = epoch
    return epochs


def capture_world_layered(world: Any,
                          devices: Optional[dict[str, Any]] = None,
                          store: Optional[WorldStore] = None,
                          basis: Optional[ForkBasis] = None,
                          ) -> tuple[LayeredSnapshot, ForkBasis]:
    """Capture ``world`` into ``store``; returns ``(snapshot, basis)``.

    Semantically identical to :func:`repro.sim.snapshot.capture_world`
    — same quiescence rules, same state, same digest — but the result
    shares every unchanged part with the rest of the store, and a
    valid ``basis`` (same store, engine fingerprint unchanged since a
    previous capture/restore) reduces the work to the parts that
    actually mutated.
    """
    if store is None:
        store = default_store()
    devices = dict(devices or {})
    parts = _world_parts(world)
    if (basis is not None and parts is not None
            and basis.store is store
            and basis.device_names == tuple(sorted(devices))
            and world.engine.activity_fingerprint == basis.engine_fingerprint):
        return _capture_fast(world, devices, store, basis, parts)
    return _capture_full(world, devices, store, basis)


def _capture_full(world: Any, devices: dict[str, Any], store: WorldStore,
                  basis: Optional[ForkBasis]) -> tuple[LayeredSnapshot,
                                                       ForkBasis]:
    """Full-audit path: exactly :func:`capture_world`, then intern."""
    snapshot = capture_world(world, devices)
    state = snapshot.state
    delta: dict[str, str] = {}
    for key in _TOP_SCALARS:
        delta[key] = store.put_fragment(state[key])
    for name, value in state["world"].items():
        _require_str_key(name, "world part")
        delta[f"world.{name}"] = store.put_fragment(value)
    for name, value in state["devices"].items():
        _require_str_key(name, "device name")
        delta[f"devices.{name}"] = store.put_fragment(value)
    parent: Optional[WorldLayer] = None
    if (basis is not None and basis.store is store
            and set(basis.layer.mapping()) == set(delta)):
        parent_mapping = basis.layer.mapping()
        changed = {key: digest for key, digest in delta.items()
                   if parent_mapping.get(key) != digest}
        store.stats.parts_reused += len(delta) - len(changed)
        store.stats.parts_recaptured += len(changed)
        parent, delta = basis.layer, changed
    layer = store.make_layer(parent, delta)
    store.stats.full_captures += 1
    return (LayeredSnapshot(store, layer),
            ForkBasis(store, layer, world.engine.activity_fingerprint,
                      _collect_epochs(world, devices),
                      tuple(sorted(devices))))


def _capture_fast(world: Any, devices: dict[str, Any], store: WorldStore,
                  basis: ForkBasis, parts: tuple) -> tuple[LayeredSnapshot,
                                                           ForkBasis]:
    """Fingerprint-backed path: only mutated parts are re-serialized.

    An unchanged :attr:`activity_fingerprint` proves no event was
    scheduled, dispatched, cancelled or restored since the basis, so
    every heap claim recorded then still stands — the global
    ``assert_drained`` audit is provably redundant and each part can
    be rebuilt (or skipped via its epoch) in isolation.
    """
    part_names, world_epochs = parts
    world.snapshot_check()
    ctx = SnapshotContext(world.engine, devices)
    parent_mapping = basis.layer.mapping()
    delta: dict[str, str] = {}
    epochs: dict[str, int] = {}

    def examine(key: str, epoch: Optional[int], build) -> None:
        if epoch is not None:
            epochs[key] = epoch
            if key in parent_mapping and basis.epochs.get(key) == epoch:
                store.stats.parts_reused += 1
                return
        digest = store.put_fragment(build())
        if parent_mapping.get(key) != digest:
            delta[key] = digest
            store.stats.parts_recaptured += 1
        else:
            store.stats.parts_reused += 1

    examine("format", None, lambda: SNAPSHOT_FORMAT)
    examine("world_class", None, lambda: class_path(type(world)))
    examine("pending", None, lambda: world.engine.pending_events)
    for name in part_names:
        _require_str_key(name, "world part")
        examine(f"world.{name}", world_epochs.get(name),
                lambda name=name: world.snapshot_part(name, ctx))
    for name, device in devices.items():
        _require_str_key(name, "device name")
        examine(f"devices.{name}", _device_epoch(device),
                lambda device=device: {
                    "class": class_path(type(device)),
                    "state": device.snapshot_state(ctx),
                })
    layer = store.make_layer(basis.layer, delta)
    store.stats.fast_captures += 1
    return (LayeredSnapshot(store, layer),
            ForkBasis(store, layer, world.engine.activity_fingerprint,
                      epochs, basis.device_names))


def _require_str_key(name: Any, what: str) -> None:
    if not isinstance(name, str):
        raise SnapshotError(f"{what} keys must be strings, got {name!r}")


def restore_world_layered(snapshot: LayeredSnapshot,
                          ) -> tuple[Any, dict[str, Any], ForkBasis]:
    """Fork a live world; returns ``(world, devices, basis)``.

    The basis lets the next :func:`capture_world_layered` of this fork
    skip everything the continuation did not touch.
    """
    world, devices = restore_world(snapshot)
    basis = ForkBasis(snapshot.store, snapshot.layer,
                      world.engine.activity_fingerprint,
                      _collect_epochs(world, devices),
                      tuple(sorted(devices)))
    return world, devices, basis


def fork_snapshot(snapshot: LayeredSnapshot,
                  replacements: dict[str, Any]) -> LayeredSnapshot:
    """Data-level fork: replace whole parts without a live world.

    ``replacements`` maps part keys (``"world.sources"``, ...) to new
    plain-data values.  This is the O(changes) branch-node operation:
    no restore, no re-simulation, no O(world) serialization — just the
    replaced parts are encoded, and the child layer records only the
    digests that actually differ.  The caller owns semantic validity
    (the result must equal restore → mutate → capture, which the fork
    helpers in :mod:`repro.experiments.common` guarantee and the tests
    pin).
    """
    store = snapshot.store
    mapping = snapshot.layer.mapping()
    delta: dict[str, str] = {}
    for key, value in replacements.items():
        if key not in mapping:
            raise SnapshotError(
                f"unknown snapshot part {key!r} "
                f"(have: {', '.join(sorted(mapping))})")
        digest = store.put_fragment(value)
        if mapping[key] != digest:
            delta[key] = digest
    layer = store.make_layer(snapshot.layer, delta)
    store.stats.data_forks += 1
    return LayeredSnapshot(store, layer)
