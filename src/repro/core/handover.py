"""Cross-instance state handover for elastic scaling (§5.1, Figure 4).

:func:`move_flows` drives the full protocol:

1. the splitter emits a "last" marker to each old instance and arms
   "first" marking for the new instance;
2. the old instance drains already-queued packets (worker barrier),
   flushes cached *operations* (ACK fence) and hands ownership metadata to
   the new instance in one bulk store message (:func:`release`);
3. the new instance, which has been buffering the moved flows since their
   first marked packet, is notified and drains its buffer in order
   (:func:`await_release`).

Loss-freeness: every packet either drains through the old instance before
the marker, or waits at the new instance until ownership lands — no update
is ever rejected by the store's ownership check. Order preservation: the
new instance starts processing strictly after the old instance's last
moved packet (the buffer drains in arrival order), so updates hit the
store in upstream-splitter arrival order.

Every move is one :class:`Move` in ``runtime.moves`` (vertex -> move id ->
record, never pruned): the marker and the event its old side fires once
ownership has landed. Nothing outside this module reads the table; the
chaos checkers ask :func:`stuck_moves`.

:func:`rebalance` is §4.1's scope walk, which reallocates through the same
protocol. :func:`evacuate` is the one way an instance leaves service under
traffic (scale-in, rolling upgrade, upgrade rollback): move what it owns,
wait until it is :func:`quiesce`-d, and retire it in the instant that is
true.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Generator, Iterable, List, NamedTuple, Optional, Tuple,
)

from repro.core.splitter import MoveMarker
from repro.simnet.engine import Event
from repro.simnet.network import HOP_LINK_US
from repro.store.protocol import WatchRequest
from repro.traffic.packet import FiveTuple, scope_fields


class Move(NamedTuple):
    """One issued move: its marker, and the event its old side fires once
    ownership has landed at the new instance (Figure 4 step 6)."""

    marker: MoveMarker
    event: Event


@dataclass
class MoveResult:
    """Outcome of one reallocation."""

    vertex: str
    new_instance: str
    n_keys: int
    n_markers: int
    started_at: float
    finished_at: float

    @property
    def duration_us(self) -> float:
        return self.finished_at - self.started_at


def _scope_key(flow_key, fields: Tuple[str, ...]) -> Optional[Tuple]:
    """An owned flow key's scope key under ``fields``.

    Owned per-flow keys are canonical five-tuples stored as plain tuples;
    any other key (cross-flow state, an NF's own key shape) has none.
    """
    if flow_key is None or len(flow_key) != 5:
        return None
    return scope_fields(FiveTuple(*flow_key), fields)


def owned_scope_keys(runtime, vertex_name: str, instance) -> Dict[Tuple, str]:
    """Scope keys ``instance``'s client records as owned, mapped to its id
    (the ``current_of`` map :func:`move_flows` takes after a refinement)."""
    fields = runtime.splitter(vertex_name).partition_fields
    owned: Dict[Tuple, str] = {}
    for _sk, (_obj, flow_key) in instance.client.owned_items().items():
        scope_key = _scope_key(flow_key, fields)
        if scope_key is not None:
            owned[scope_key] = instance.instance_id
    return owned


def routed_scope_keys(runtime, vertex_name: str, instance) -> List[Tuple]:
    """The owned scope keys that also route to ``instance``: what it holds.

    A client's record is optimistic — a claim the store rejected (a failover
    replacement is replayed every logged packet, its siblings' flows
    included) is never un-recorded — and a move on its word takes a key's
    routing from the instance that does own it. Only a scope refinement,
    which has just changed what routing says, reads the raw record.
    """
    route = runtime.splitter(vertex_name).current_instance_for
    owned = owned_scope_keys(runtime, vertex_name, instance)
    return [key for key in owned if route(key) == instance.instance_id]


# ----------------------------------------------------------------------
# the move table
# ----------------------------------------------------------------------


def _move(runtime, vertex_name: str, marker: MoveMarker) -> Move:
    return runtime.moves[vertex_name][marker.move_id]


def _conflicts(runtime, vertex_name: str, fields, scope_keys) -> List[Event]:
    """Events of the issued moves a new move of ``scope_keys`` must wait for.

    A move conflicts while its event is untriggered and it was issued under
    different partition fields (after a §4.1 refinement the keys are
    incomparable, so be conservative) or names one of the same scope keys.
    Starting an overlapping move before the prior transfer lands would
    consult stale routing: the prior move's target is named old holder
    before it owns anything, its release covers no keys, and the flow's
    updates are rejected by the store's ownership check from then on.

    Because :func:`move_flows` issues a move only once nothing conflicts
    with it, the untriggered moves of a vertex share one set of fields and
    name disjoint scope keys: no scope key is ever claimed by two moves
    still in flight.
    """
    wanted = set(scope_keys)
    return [
        move.event
        for move in runtime.moves.get(vertex_name, {}).values()
        if not move.event.triggered
        and (move.marker.fields != fields or not wanted.isdisjoint(move.marker.scope_keys))
    ]


def completed(runtime, vertex_name: str, marker: MoveMarker) -> bool:
    """Ownership of ``marker``'s keys has landed at its new instance."""
    return _move(runtime, vertex_name, marker).event.triggered


def stuck_moves(runtime) -> Dict[str, int]:
    """Per vertex, the scope keys of moves whose ownership never landed."""
    stuck: Dict[str, int] = {}
    for vertex_name, moves in runtime.moves.items():
        live = sum(
            len(move.marker.scope_keys)
            for move in moves.values()
            if not move.event.triggered
        )
        if live:
            stuck[vertex_name] = live
    return stuck


# ----------------------------------------------------------------------
# move_flows and the two sides of a move
# ----------------------------------------------------------------------


def move_flows(
    runtime,
    vertex_name: str,
    scope_keys: Iterable[Tuple],
    new_instance_id: str,
    current_of=None,
) -> Generator:
    """Reallocate the given partition keys to ``new_instance_id``.

    A simulation process body (``yield from`` it, or wrap in
    ``sim.process``). Returns a :class:`MoveResult` once ownership has
    fully moved (Figure 4 step 6 reached for every marker). ``current_of``
    maps keys to their actual holders when the default routing can't tell
    (scope refinement).
    """
    sim = runtime.sim
    splitter = runtime.splitter(vertex_name)
    scope_keys = list(scope_keys)
    started_at = sim.now

    # Serialise against conflicting moves in flight. Re-checked after every
    # wait: a move that completed while we slept may have been replaced by
    # yet another conflicting one.
    while True:
        busy = _conflicts(runtime, vertex_name, splitter.partition_fields, scope_keys)
        if not busy:
            break
        yield sim.all_of(busy)

    markers = splitter.begin_move(scope_keys, new_instance_id, current_of=current_of)

    moves = runtime.moves.setdefault(vertex_name, {})
    events = []
    for control_packet in markers:
        marker = control_packet.control
        event = sim.event(name=f"move({vertex_name},#{marker.move_id})")
        moves[marker.move_id] = Move(marker, event)
        events.append(event)
        # The marker travels the same path as data to the old instance.
        sim.schedule(
            HOP_LINK_US,
            runtime.nics[marker.old_instance].send,
            control_packet,
            control_packet.size_bits,
        )
    pending = [event for event in events if not event.triggered]
    if pending:
        yield sim.all_of(pending)
    return MoveResult(
        vertex=vertex_name,
        new_instance=new_instance_id,
        n_keys=len(scope_keys),
        n_markers=len(markers),
        started_at=started_at,
        finished_at=sim.now,
    )


def _notify_key(vertex_name: str, marker: MoveMarker) -> str:
    """The store key a move's bulk release notifies its watchers on."""
    return f"{vertex_name}\x1f__move__\x1f{marker.move_id}"


def release(runtime, instance, marker: MoveMarker) -> Generator:
    """Old-instance side of step 5, once every worker has passed the marker
    and the cached operations are ACK'd: hand the matching per-flow keys to
    the new instance in one bulk metadata update, then fire the move.

    The new instance's client *adopts* the released keys (ownership
    metadata only, no values — its cache stays cold): the store names it
    owner from this transfer on, and a later move of the same flows must
    find these keys in its ``owned_items`` even if no packet of the moved
    flows arrives in between.
    """
    moved = [
        (storage_key, obj_name, flow_key)
        for storage_key, (obj_name, flow_key) in instance.client.owned_items().items()
        if _scope_key(flow_key, marker.fields) in marker.scope_keys
    ]
    yield from instance.client.release_keys_bulk(
        [storage_key for storage_key, _obj, _fk in moved],
        marker.new_instance,
        _notify_key(instance.vertex_name, marker),
    )
    target = runtime.instances.get(marker.new_instance)
    if target is not None and target.alive:
        target.client.adopt_keys(moved)
    event = _move(runtime, instance.vertex_name, marker).event
    if not event.triggered:
        event.succeed(moved)


def await_release(runtime, instance, marker: MoveMarker) -> Generator:
    """New-instance side of steps 3 and 6: consult the store (one RTT for
    the owner check / callback registration), then wait for the move."""
    event = _move(runtime, instance.vertex_name, marker).event
    notify_key = _notify_key(instance.vertex_name, marker)
    yield instance.client.endpoint.call_event(
        runtime.store.endpoint_for_key(notify_key),
        WatchRequest(key=notify_key, endpoint=instance.instance_id, kind="owner"),
    )
    if not event.triggered:
        yield event


# ----------------------------------------------------------------------
# what reallocates through it
# ----------------------------------------------------------------------


def notify_split_changed(runtime, vertex_name: str) -> Generator:
    """Re-evaluate caching exclusivity after a split change; clients
    losing exclusivity flush (Figure 9's experiment pivots on this)."""
    splitter = runtime.splitter(vertex_name)
    for instance in runtime.instances_of(vertex_name):
        for obj_name, spec in instance.client.specs.items():
            exclusive = splitter.grants_exclusive(spec)
            yield from instance.client.set_exclusive(obj_name, exclusive)


def rebalance(runtime, vertex_name: str, finer_fields=None) -> Generator:
    """Walk the vertex's partitioning one scope finer (§4.1).

    "The framework ... considers progressively finer grained scopes and
    repeats the above process until load is even." Refinement remaps
    some flow groups to other instances; every remapped group moves via
    the Figure 4 handover, so the walk is loss-free and order-
    preserving, and caching exclusivity is re-derived afterwards.

    Returns the list of :class:`MoveResult`, or ``None`` when already
    at the finest declared scope.
    """
    splitter = runtime.splitter(vertex_name)
    if finer_fields is None:
        ordered = splitter.scopes
        try:
            index = ordered.index(splitter.partition_fields)
        except ValueError:
            index = len(ordered)
        if index == 0:
            return None
        finer_fields = ordered[index - 1]
    splitter.partition_fields = tuple(finer_fields)

    # Which owned flow groups now route elsewhere? Routing has just changed,
    # so the holder is what each client records, not what routing says.
    pending: Dict[str, Dict[Tuple, str]] = {}
    for instance in runtime.instances_of(vertex_name):
        if not instance.alive:
            continue
        for scope_key in owned_scope_keys(runtime, vertex_name, instance):
            destination = splitter.current_instance_for(scope_key)
            if destination != instance.instance_id:
                pending.setdefault(destination, {})[scope_key] = instance.instance_id
    results = []
    for destination, holders in sorted(pending.items()):
        outcome = yield from move_flows(
            runtime, vertex_name, list(holders), destination, current_of=holders
        )
        results.append(outcome)
    yield from notify_split_changed(runtime, vertex_name)
    return results


def quiesce(runtime, instance, deadline: float) -> Generator:
    """Gate: nothing dispatched to ``instance`` is unfinished, flushes ACK'd.

    Waits for ``instance.inbound`` to reach zero (or ``deadline``), then for
    the flush ACK fence. The verdict holds *in the instant it is returned*:
    a copy dispatched during either wait counts against it, so a caller
    that retires on True does so before its next ``yield``.
    """
    sim = runtime.sim
    if instance.inbound and sim.now < deadline:
        yield sim.any_of([instance.quiescent(), sim.timeout(deadline - sim.now)])
    if instance.inbound or not instance.alive:
        return False
    yield instance.client.ack_barrier()
    return instance.alive and not instance.inbound


def evacuate(
    runtime,
    instance,
    destination_of: Callable[[Tuple], str],
    deadline: float,
    replace_with: Optional[str] = None,
) -> Generator:
    """Take ``instance`` out of service under traffic, loss-free.

    Rounds of { move every scope key it owns to ``destination_of(key)``;
    :func:`quiesce` } until it is idle and owns nothing — a flow whose first
    packet was in flight when a round began claims ownership mid-drain and
    is moved by the next. In that same instant (no ``yield``, so no copy
    can be dispatched to a port about to close) it leaves the runtime's
    membership, ``replace_with`` succeeding it if given; the survivors'
    caching exclusivity is re-derived after. Returns ``(keys moved,
    None)``, or — nothing retired — the reason as second item: a missed
    ``deadline`` or a dead ``instance`` (a corpse still "owns" keys, and a
    Figure-4 move its side could never answer would strand the flow).
    """
    vertex_name = instance.vertex_name
    splitter = runtime.splitter(vertex_name)
    moved = 0
    while instance.alive:
        by_destination: Dict[str, List[Tuple]] = {}
        for scope_key in routed_scope_keys(runtime, vertex_name, instance):
            by_destination.setdefault(destination_of(scope_key), []).append(scope_key)
        for destination, keys in sorted(by_destination.items()):
            result = yield from move_flows(runtime, vertex_name, keys, destination)
            moved += result.n_keys
        splitter.drop_home_overrides()
        idle = yield from quiesce(runtime, instance, deadline)
        if idle and not routed_scope_keys(runtime, vertex_name, instance):
            if replace_with is None:
                runtime.retire_instance(instance.instance_id)
            else:
                runtime.replace_instance(instance.instance_id, replace_with)
                splitter.drop_home_overrides()
            yield from notify_split_changed(runtime, vertex_name)
            return moved, None
        if instance.alive and runtime.sim.now >= deadline:
            return moved, "ownership never quiesced" if idle else "drain budget exceeded"
    return moved, "instance died"
