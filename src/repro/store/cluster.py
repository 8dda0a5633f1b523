"""Multiple datastore instances (§4.3 "For scale and fault tolerance").

Each store instance handles state for a subset of NF vertices; each state
object lives on exactly one store node, so no cross-node coordination is
ever needed. Vertices are assigned explicitly (or fall back to a stable
hash), and a failed instance can be replaced while the cluster keeps the
same routing.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence

from repro.store.datastore import DatastoreInstance
from repro.store.keys import parse_storage_key
from repro.store.operations import OperationFn
from repro.util import Memo


class StoreCluster:
    """Routes state keys to store instances by vertex assignment."""

    def __init__(self, instances: List[DatastoreInstance]):
        if not instances:
            raise ValueError("a cluster needs at least one store instance")
        self._instances: Dict[str, DatastoreInstance] = {i.name: i for i in instances}
        self._order: List[str] = [i.name for i in instances]
        self._vertex_assignment: Dict[str, str] = {}
        # Scale-out replicas: reachable only through vertex pins, never
        # part of the stable-hash ring (``_order``). Kept after the ring
        # so state audits that fold ``instances`` into one map see the
        # replica's (authoritative) copy of a migrated key last.
        self._replicas: List[str] = []
        # storage key -> endpoint; cleared whenever routing changes
        self._endpoint_memo = Memo(self._route_key)

    @property
    def instances(self) -> List[DatastoreInstance]:
        return [self._instances[name] for name in self._order + self._replicas]

    def assign_vertex(self, vertex_id: str, store_name: str) -> None:
        """Pin all of a vertex's state to one store instance."""
        if store_name not in self._instances:
            raise KeyError(f"unknown store instance {store_name!r}")
        self._vertex_assignment[vertex_id] = store_name
        self._endpoint_memo.clear()

    def endpoint_for_key(self, storage_key: str) -> str:
        """Name of the store instance holding ``storage_key``."""
        return self._endpoint_memo[storage_key]

    def _route_key(self, storage_key: str) -> str:
        try:
            vertex, _obj, _flow = parse_storage_key(storage_key)
        except ValueError:
            vertex = storage_key  # bare keys hash as their own "vertex"
        assigned = self._vertex_assignment.get(vertex)
        if assigned is not None:
            return assigned
        # Stable hash fallback: deterministic across runs (no PYTHONHASHSEED
        # dependence). crc32 rather than a byte sum: a sum collides on any
        # character permutation of a vertex name ("nat1"/"na1t"), piling
        # anagram vertices onto one store node.
        digest = zlib.crc32(vertex.encode()) % len(self._order)
        return self._order[digest]

    def instance_for_key(self, storage_key: str) -> DatastoreInstance:
        return self._instances[self.endpoint_for_key(storage_key)]

    def instance_named(self, name: str) -> DatastoreInstance:
        return self._instances[name]

    def replace_instance(self, old_name: str, replacement: DatastoreInstance) -> None:
        """Swap a failed instance for its recovery replacement in routing."""
        if old_name not in self._instances:
            raise KeyError(f"unknown store instance {old_name!r}")
        del self._instances[old_name]
        self._instances[replacement.name] = replacement
        self._order = [replacement.name if n == old_name else n for n in self._order]
        self._replicas = [
            replacement.name if n == old_name else n for n in self._replicas
        ]
        for vertex, store in list(self._vertex_assignment.items()):
            if store == old_name:
                self._vertex_assignment[vertex] = replacement.name
        self._endpoint_memo.clear()

    def add_replica(
        self, replica: DatastoreInstance, vertices: Sequence[str] = ()
    ) -> None:
        """Register a scale-out replica and re-pin ``vertices`` to it.

        The replica deliberately does NOT join the stable-hash ring:
        growing ``_order`` would remap every unpinned vertex's keys to new
        homes nobody migrated (silent state loss). Traffic reaches the
        replica exclusively through vertex pins, so adding one is a pure
        routing change for exactly the vertices being re-homed — the
        elastic analogue of :meth:`replace_instance`'s same-slot swap.
        """
        if replica.name in self._instances:
            raise ValueError(f"store instance {replica.name!r} already registered")
        self._instances[replica.name] = replica
        self._replicas.append(replica.name)
        for vertex in vertices:
            self.assign_vertex(vertex, replica.name)

    def vertices_assigned_to(self, store_name: str) -> List[str]:
        """Vertices currently pinned to ``store_name`` (sorted)."""
        return sorted(
            vertex
            for vertex, store in self._vertex_assignment.items()
            if store == store_name
        )

    def unassign_vertex(self, vertex_id: str) -> None:
        """Drop a vertex's pin (maintenance-director vertex removal).

        Safe on an unpinned vertex; later keys for that vertex would fall
        back to the stable-hash route, but a removed vertex never issues
        any.
        """
        self._vertex_assignment.pop(vertex_id, None)
        self._endpoint_memo.clear()

    def register_custom_op(self, name: str, fn: OperationFn) -> None:
        """Load a developer-supplied operation on every store instance."""
        for instance in self._instances.values():
            instance.registry.register(name, fn, allow_replace=True)
