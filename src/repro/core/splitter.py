"""Scope-aware traffic partitioning (§4.1) and move marking (Figure 4).

A splitter sits after every NF instance (and at the root) and partitions
that instance's output among the downstream vertex's instances such that:

1. each flow is processed at a single instance,
2. the partition key is as coarse as load allows, so state objects keyed
   by (a superset of) the partition fields are never shared — which is
   what lets the client-side library cache cross-flow state, and
3. load stays balanced (``refine()`` walks to the next finer scope when
   the vertex manager reports imbalance).

The splitter is also where elastic-scaling moves start: ``begin_move``
emits the "last" marker to the old instance and arms "first" marking for
the new one (Figure 4 steps 1–2), and where straggler cloning replicates
traffic to the straggler and its clone (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.store.spec import StateObjectSpec
from repro.traffic.packet import FiveTuple, Packet, scope_fields
from repro.util import Memo, fields_subset, stable_hash

FIVE_TUPLE: Tuple[str, ...] = ("src_ip", "dst_ip", "src_port", "dst_port", "proto")


_marker_ids = iter(range(1, 1 << 62))


@dataclass(frozen=True)
class MoveMarker:
    """In-band control payload carried by a ``mark_last`` packet.

    One marker covers a whole *batch* of moved partition keys bound for
    the same (old, new) instance pair — reallocation of thousands of flows
    is one metadata operation, not thousands (§7.3 R2). ``move_id`` is
    unique per vertex (all of its uses are vertex-scoped) so repeated
    moves of the same keys never alias.

    ``marker_id`` is a process-monotonic identity assigned at construction
    and excluded from equality: barrier bookkeeping keys on it instead of
    ``id(marker)``, whose value can be reused after the marker is GC'd and
    silently merge two different barriers (chclint CHC004).
    """

    scope_keys: frozenset
    fields: Tuple[str, ...]
    old_instance: str
    new_instance: str
    move_id: int = 0
    marker_id: int = field(
        default_factory=lambda: next(_marker_ids), compare=False, repr=False
    )


class Splitter:
    """Partitions one traffic stream across a vertex's instances."""

    def __init__(
        self,
        vertex_name: str,
        instances: Sequence[str],
        scopes: Optional[List[Tuple[str, ...]]] = None,
        partition_fields: Optional[Tuple[str, ...]] = None,
    ):
        if not instances:
            raise ValueError(f"splitter for {vertex_name!r} needs >= 1 instance")
        self.vertex_name = vertex_name
        self.instances: List[str] = list(instances)
        # Per-splitter move-id allocation: move ids are only ever used
        # vertex-scoped (the per-vertex move table, per-instance pending
        # moves, the vertex-prefixed move notify key), and the notify key is
        # *hashed* for store shard/thread routing — a process-global
        # counter would make same-seed runs route moves differently.
        self._move_ids = iter(range(1, 1 << 62))
        # Hash-based default routing uses a *stable* member list: instances
        # added later (scale-up, clones) receive traffic only via explicit
        # overrides/moves, so existing flows never silently remap — CHC
        # reallocates flows only through the Figure 4 handover.
        self.hash_members: List[str] = list(instances)
        # scopes, most fine-grained first, as returned by NF.scope(); start
        # partitioning at the *coarsest* and refine only under imbalance.
        self.scopes: List[Tuple[str, ...]] = scopes or [FIVE_TUPLE]
        if partition_fields is None:
            partition_fields = self.scopes[-1] if self.scopes else FIVE_TUPLE
        # five-tuple -> (partition key, hash home): a known flow is routed
        # by one dict hit. Valid for one (partition_fields, hash_members).
        self._flow_memo = Memo(self._resolve_flow)
        self.partition_fields = partition_fields or FIVE_TUPLE
        self.overrides: Dict[Tuple, str] = {}
        self._pending_first: Dict[Tuple, str] = {}
        self._pending_first_marker: Dict[Tuple, "MoveMarker"] = {}
        self.replicate: Dict[str, str] = {}  # original instance -> clone

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    @property
    def partition_fields(self) -> Tuple[str, ...]:
        return self._partition_fields

    @partition_fields.setter
    def partition_fields(self, fields: Tuple[str, ...]) -> None:
        self._partition_fields = fields
        self._flow_memo.clear()

    def _resolve_flow(self, five_tuple) -> Tuple[Tuple, str]:
        # Partition on the canonical tuple so both directions of a flow hit
        # the same instance (rule 1 of §4.1).
        key = scope_fields(five_tuple.canonical(), self._partition_fields)
        return key, self.hash_home(key)

    def key_of(self, packet: Packet) -> Tuple:
        return self._flow_memo[packet.five_tuple][0]

    def route(self, packet: Packet) -> List[str]:
        """Destination instance(s) for this packet.

        Returns more than one destination only while replication to a
        straggler's clone is active. Mutates the packet to apply a pending
        ``mark_first`` (Figure 4 step 2).
        """
        # A replayed packet targeted at one of our instances must reach
        # exactly that instance (§5.3 #3: it carries the clone's ID).
        if packet.replay_target is not None and packet.replay_target in self.instances:
            return [packet.replay_target]

        key, hash_home = self._flow_memo[packet.five_tuple]
        primary = self.overrides.get(key, hash_home)
        if self._pending_first.get(key) == primary:
            packet.mark_first = True
            packet.control = self._pending_first_marker.pop(key, None)
            del self._pending_first[key]
        destinations = [primary]
        clone = self.replicate.get(primary)
        if clone is not None:
            destinations.append(clone)
        return destinations

    # ------------------------------------------------------------------
    # membership & scope control
    # ------------------------------------------------------------------

    def add_instance(self, instance: str, join_hash: bool = False) -> None:
        if instance not in self.instances:
            self.instances.append(instance)
        if join_hash and instance not in self.hash_members:
            self.hash_members.append(instance)
            self._flow_memo.clear()

    def remove_instance(self, instance: str) -> None:
        if instance in self.instances:
            self.instances.remove(instance)
        if instance in self.hash_members:
            self.hash_members.remove(instance)
            self._flow_memo.clear()
        self.overrides = {k: v for k, v in self.overrides.items() if v != instance}
        self.replicate = {o: c for o, c in self.replicate.items() if instance not in (o, c)}

    def replace_instance(self, old: str, new: str) -> None:
        """``new`` takes ``old``'s slot (the hash partition is unchanged), listed
        once even if it had already joined; ``old`` is named nowhere after."""
        self.instances = [new if i == old else i for i in self.instances if i != new]
        self.hash_members = [new if i == old else i for i in self.hash_members]
        self._flow_memo.clear()
        for key, value in list(self.overrides.items()):
            if value == old:
                self.overrides[key] = new
        self.replicate = {o: c for o, c in self.replicate.items() if old not in (o, c)}

    def refine(self) -> bool:
        """Move to the next finer-grained scope (load imbalance response).

        Returns False when already at the finest declared scope.
        """
        ordered = self.scopes  # finest first
        try:
            index = ordered.index(self.partition_fields)
        except ValueError:
            index = len(ordered)
        if index == 0:
            return False
        self.partition_fields = ordered[index - 1] if index <= len(ordered) - 1 else ordered[-1]
        return True

    def grants_exclusive(self, spec: StateObjectSpec) -> bool:
        """Does the current split confine ``spec``'s keys to one instance?

        True when there is a single instance, or when the partition fields
        are a subset of the object's scope fields (§4.3 cross-flow caching
        precondition).
        """
        if len(self.instances) == 1 and not self.replicate:
            return True
        if not spec.scope_fields:
            return False
        return fields_subset(self.partition_fields, spec.scope_fields)

    # ------------------------------------------------------------------
    # moves (Figure 4 steps 1-2)
    # ------------------------------------------------------------------

    def hash_home(self, scope_key: Tuple) -> str:
        """Where ``scope_key`` routes when no override names it."""
        return self.hash_members[stable_hash(scope_key) % len(self.hash_members)]

    def current_instance_for(self, scope_key: Tuple) -> str:
        return self.overrides.get(scope_key) or self.hash_home(scope_key)

    def drop_home_overrides(self) -> None:
        """An override naming the key's own hash home routes nothing."""
        for scope_key, pinned in list(self.overrides.items()):
            if pinned == self.hash_home(scope_key):
                del self.overrides[scope_key]

    def begin_move(
        self, scope_keys, new_instance: str, current_of: Optional[Dict[Tuple, str]] = None
    ) -> List[Packet]:
        """Reallocate a batch of partition keys to ``new_instance``.

        Returns the ``mark_last`` control packets to enqueue — one per old
        instance currently holding any of the keys (keys already at the
        new instance need no marker). Subsequent packets for each key
        route to the new instance, the first per key carrying
        ``mark_first`` and the move marker (Figure 4 steps 1-2).

        ``current_of`` overrides where each key currently lives — needed
        when the partition granularity itself just changed (a §4.1 scope
        refinement), because the hash under the new fields no longer tells
        us the actual holder.
        """
        by_old: Dict[str, List[Tuple]] = {}
        for scope_key in scope_keys:
            if current_of is not None and scope_key in current_of:
                old = current_of[scope_key]
            else:
                old = self.current_instance_for(scope_key)
            if old == new_instance:
                continue
            by_old.setdefault(old, []).append(scope_key)
            self.overrides[scope_key] = new_instance
            self._pending_first[scope_key] = new_instance
        markers: List[Packet] = []
        for old, keys in sorted(by_old.items()):
            marker = MoveMarker(
                scope_keys=frozenset(keys),
                fields=self.partition_fields,
                old_instance=old,
                new_instance=new_instance,
                move_id=next(self._move_ids),
            )
            control = Packet(
                five_tuple=FiveTuple("0.0.0.0", "0.0.0.0", 0, 0, 0),
                size_bytes=60,
                control=marker,
            )
            control.mark_last = True
            for key in keys:
                self._pending_first_marker[key] = marker
            markers.append(control)
        return markers

    def allocation(self) -> Dict[str, object]:
        """Serialisable view of the current split (root recovery queries
        this from downstream instances, §5.4 "Root")."""
        return {
            "partition_fields": self.partition_fields,
            "instances": list(self.instances),
            "overrides": dict(self.overrides),
        }
