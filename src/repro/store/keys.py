"""State-object keys and their metadata (§4.3, "State metadata").

The client-side library appends metadata to every key: the **vertex ID**
(prevents collisions when two logical NFs use the same object name) and,
for per-flow objects, the **instance ID** of the owner. Ownership is
enforced by the store: only the associated instance may update a per-flow
object, which is what makes cross-instance handover (Figure 4) a pure
metadata operation instead of a state copy.

Shared (cross-flow) objects carry no instance ID — every instance of the
vertex may issue operations on them; the store serializes those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

# The framework's own keys carry one of these markers: the root's clock and
# store-kept log (§5.4, §7.2), a Figure-4 move's release notification, and
# Appendix A's non-deterministic values. They are bookkeeping, not NF state,
# so state comparisons skip them.
ROOT_MARKER = "__root__"
MOVE_MARKER = "__move__"
NONDET_MARKER = "__nondet__"
_INTERNAL_MARKERS = (ROOT_MARKER, MOVE_MARKER, NONDET_MARKER)


@dataclass(frozen=True)
class StateKey:
    """A fully-qualified state object key.

    ``flow_key`` is the projection of the packet header onto the object's
    scope (e.g. ``("10.0.0.1",)`` for a per-src-host object, or the full
    five-tuple for per-connection state). ``None`` means a singleton object
    (e.g. a vertex-wide packet counter).
    """

    vertex_id: str
    obj_name: str
    flow_key: Optional[Tuple] = None

    def storage_key(self) -> str:
        """The flat string the store shards and indexes on."""
        flow = "" if self.flow_key is None else "|".join(map(str, self.flow_key))
        return f"{self.vertex_id}\x1f{self.obj_name}\x1f{flow}"

    def object_id(self) -> str:
        """Vertex-qualified object name (ignores the flow key)."""
        return f"{self.vertex_id}\x1f{self.obj_name}"

    def __str__(self) -> str:
        return self.storage_key().replace("\x1f", "/")


def parse_storage_key(raw: str) -> Tuple[str, str, str]:
    """Split a flat storage key back into (vertex, object, flow) parts."""
    vertex, obj, flow = raw.split("\x1f")
    return vertex, obj, flow


def vertex_of_key(raw: str) -> str:
    """Vertex part of a storage key; a bare key is its own "vertex".

    Mirrors :meth:`StoreCluster.endpoint_for_key`'s routing view, so any
    code slicing a store's state by vertex (scale-out migration, the
    per-vertex lame duck) agrees with where the router sends that key.
    """
    return raw.split("\x1f", 1)[0]


def is_internal_key(raw: str) -> bool:
    """Whether a storage key is framework bookkeeping rather than NF state."""
    return any(marker in raw for marker in _INTERNAL_MARKERS)


def root_clock_key(root_id: int) -> str:
    """Where root ``root_id`` persists its clock; a new root resumes above
    it (§5.4 "Root")."""
    return f"{ROOT_MARKER}\x1froot{root_id}_clock\x1f"


def root_log_key(root_id: int, clock: object = "") -> str:
    """Root ``root_id``'s store-kept log entry for ``clock`` (§7.2); with no
    clock, the prefix every such entry shares."""
    return f"{ROOT_MARKER}\x1froot{root_id}_log\x1f{clock}"
