"""Store re-homing: move vertices' keys to another store node under traffic.

Every state object lives on exactly one store node (§4.3) and the
clock-keyed update log makes a retransmitted op idempotent (§5.3), so
"move these vertices' keys from A to B while packets flow" is one
protocol (DESIGN.md §8), run by :class:`Rehoming`: **swap** (one sim
instant: B is A's :func:`successor`, :func:`transfer` the moved keys'
state and dedup log, re-route, A goes lame duck for them), **drain**
(un-ACK'd clients retransmit onto B; gate on A's queue and on what A
still committed having landed on B) and **finish**. Planned whole-node
replacement (``MaintenanceDirector.replace_store``, ``vertices=None``)
and store scale-out (``AutoscaleController``, one vertex onto an
off-ring replica) are its callers; crash recovery shares
:func:`successor`, :func:`seed_log` and :func:`repoint`.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Generator, Optional, Sequence, Set

from repro.store.datastore import (
    ALL_VERTICES,
    DatastoreInstance,
    Identity,
    VertexSet,
    vertex_set,
)
from repro.store.keys import vertex_of_key
from repro.store.operations import OperationRegistry


def successor(
    src: DatastoreInstance, name: str, seed: int = 0, registry: Optional[OperationRegistry] = None
) -> DatastoreInstance:
    """A fresh, empty node configured like ``src`` (the one clone site).

    ``mirror`` is deliberately not inherited: a mirror tracks one
    primary's op stream, and a successor starts a new one.
    """
    return DatastoreInstance(
        src.sim,
        src.endpoint.network,
        name,
        n_threads=src.n_threads,
        op_service_us=src.op_service_us,
        registry=src.registry if registry is None else registry,
        root_endpoint=src.root_endpoint,
        checkpoint_interval_us=src.checkpoint_interval_us,
        dedup_enabled=src.dedup_enabled,
        seed=seed,
        inflight_limit=src.inflight_limit,
        overload_retry_after_us=src.overload_retry_after_us,
    )


def seed_log(
    dst: DatastoreInstance, update_log: Dict[Identity, Any], moved: VertexSet = ALL_VERTICES
) -> Set[Identity]:
    """Seed ``dst``'s dedup log from ``update_log``; returns what it now covers."""
    seeded = {
        identity: value
        for identity, value in update_log.items()
        if vertex_of_key(identity[0]) in moved
    }
    for identity, value in seeded.items():
        dst._log_committed(identity, value)
    return set(seeded)


def transfer(
    src: DatastoreInstance, dst: DatastoreInstance, vertices: Optional[Sequence[str]] = None
) -> Set[Identity]:
    """Copy everything that travels with the keys of ``vertices`` (None = all).

    Values, ownership, TS metadata, clone registrations; the dedup log, so
    ``dst`` *emulates* a duplicate of an identity the copied state already
    reflects (the log holds return values, not ops: emulation is the only
    safe answer); the pruned-clock memory — a retransmission in flight may
    carry a clock ``src`` already pruned; and the watchers — a client whose
    key is cached never re-registers, so without them ``dst`` pushes no
    callback and the reader stays stale. Same instant as the routing swap.
    Returns the seeded log identities.
    """
    moved = vertex_set(vertices)
    moving = lambda key: vertex_of_key(key) in moved  # noqa: E731
    dst._data.update((k, copy.deepcopy(v)) for k, v in src._data.items() if moving(k))
    dst._owners.update((k, v) for k, v in src._owners.items() if moving(k))
    dst._ts.update((k, dict(v)) for k, v in src._ts.items() if moving(k))
    dst._clones.update(src._clones)
    dst._pruned_clocks |= src._pruned_clocks
    for kind in ("value", "owner"):
        dst._watcher_map(kind).update(
            (k, set(w)) for k, w in src._watcher_map(kind).items() if moving(k)
        )
    return seed_log(dst, src._update_log, moved)


def repoint(runtime, src_name: str, dst: DatastoreInstance, beside: bool = False) -> None:
    """Point every root at ``dst``, in the instant the cluster map swapped.

    ``dst`` takes ``src_name``'s place, or joins ``beside`` it. Either way
    commit-signal parity is unreliable across the change (the old node's
    signals stop, or double up with the retransmissions'), so every live
    root is told.
    """
    for root in runtime.roots:
        # always a new list: a recovered root shares its predecessor's
        if beside:
            root.store_endpoints_for_prune = root.store_endpoints_for_prune + [dst.name]
        else:
            if root.store_endpoint == src_name:
                root.store_endpoint = dst.name
            root.store_endpoints_for_prune = [
                dst.name if s == src_name else s
                for s in root.store_endpoints_for_prune
            ]
        if root.alive:
            root.note_store_recovered()


class Rehoming:
    """One run of the protocol: constructing it *is* the swap step."""

    def __init__(
        self,
        runtime,
        src: DatastoreInstance,
        dst_name: str,
        vertices: Optional[Sequence[str]] = None,
        seed: int = 0,
    ):
        self.src = src
        self.vertices = vertices
        self._moved = vertex_set(vertices)
        self.dst = successor(src, dst_name, seed=seed)
        self.covered = transfer(src, self.dst, vertices)
        if vertices is None:  # dst takes src's ring slot and pins
            runtime.store.replace_instance(src.name, self.dst)
        else:  # an off-ring replica, reachable through the pins only
            runtime.store.add_replica(self.dst, vertices=vertices)
        repoint(runtime, src.name, self.dst, beside=vertices is not None)
        src.enter_lame_duck(vertices)
        #: identities ``src`` committed after the snapshot (see drain)
        self.pending: Set[Identity] = set()

    def _observe(self) -> bool:
        """Note identities the muted ``src`` committed since last asked."""
        fresh = {
            identity
            for identity in self.src._update_log
            if vertex_of_key(identity[0]) in self._moved
        } - self.covered - self.pending
        self.pending |= fresh
        return bool(fresh)

    def _landed(self, identity: Identity) -> bool:
        # a pruned clock means the root saw the packet's full commit
        # vector — and only ``dst`` still signals for these keys
        return identity in self.dst._update_log or identity[1] in self.dst._pruned_clocks

    def drain(self, poll_us: float, budget_us: float) -> Generator:
        """The drain gate. Returns ``""`` once passed, else why it never did.

        Polls until ``src`` holds no queued request for the moved vertices
        for two polls running, *observing* — never copying: a copy would
        race the retransmission and could clobber a key ``dst`` has moved
        past — each identity it still commits; then until all of those
        landed on ``dst``. A ``src`` that dies mid-drain passes the first
        half at once: what it never ACK'd is retransmitted all the same.
        """
        sim = self.src.sim
        deadline = sim.now + budget_us
        quiet = 0
        while self.src.alive:
            busy = self._observe() or self.src.queued_for(self.vertices)
            quiet = 0 if busy else quiet + 1
            if quiet >= 2:
                break
            if sim.now >= deadline:
                return "catch-up never quiesced"
            yield sim.timeout(poll_us)
        while not all(self._landed(identity) for identity in self.pending):
            if sim.now >= deadline:
                return "pending flushes never reconciled"
            yield sim.timeout(poll_us)
        return ""

    def finish(self) -> None:
        """Tear ``src`` down, or drop its dead copies of the moved vertices.

        The per-vertex mute outlives the GC, so finishing after a failed
        gate is safe there: a straggler's phantom write stays invisible.
        """
        if self.vertices is None:
            self.src.fail()
        else:
            for vertex in self.vertices:
                self.src.forget_vertex(vertex)
