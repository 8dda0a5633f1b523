"""Cross-instance state handover for elastic scaling (§5.1, Figure 4).

:func:`move_flows` drives the full protocol:

1. the splitter emits a "last" marker to each old instance and arms
   "first" marking for the new instance;
2. the old instance drains already-queued packets (worker barrier),
   flushes cached *operations* (ACK fence) and hands ownership metadata to
   the new instance in one bulk store message;
3. the new instance, which has been buffering the moved flows since their
   first marked packet, is notified and drains its buffer in order.

Loss-freeness: every packet either drains through the old instance before
the marker, or waits at the new instance until ownership lands — no update
is ever rejected by the store's ownership check. Order preservation: the
new instance starts processing strictly after the old instance's last
moved packet (the buffer drains in arrival order), so updates hit the
store in upstream-splitter arrival order.

:func:`evacuate` is the one way an instance leaves service under traffic
(scale-in, rolling upgrade, upgrade rollback): move what it owns, wait
until it is :func:`quiesce`-d, and retire it in the instant that is true.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Iterable, List, Optional, Tuple


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


def owned_scope_keys(runtime, vertex_name: str, instance) -> Dict[Tuple, str]:
    """Scope keys ``instance``'s client records as owned, mapped to its id
    (the ``current_of`` map :func:`move_flows` takes after a refinement)."""
    fields = runtime.splitter(vertex_name).partition_fields
    owned: Dict[Tuple, str] = {}
    for _sk, (_obj, flow_key) in instance.client.owned_items().items():
        scope_key = None if flow_key is None else runtime._project(flow_key, fields)
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
    splitter = runtime.splitter(vertex_name)
    scope_keys = list(scope_keys)
    started_at = runtime.sim.now

    # Serialise against in-flight moves of the same keys: until the prior
    # move's ownership transfer lands, routing overrides name a holder that
    # does not own anything yet, so a second move issued now would release
    # no keys and strand the flow's state (loss). Overlap is re-checked
    # after every wait — a move that completed while we slept may have been
    # replaced by yet another conflicting one.
    while True:
        busy = runtime.moves_in_flight(vertex_name, splitter.partition_fields, scope_keys)
        if not busy:
            break
        yield runtime.sim.all_of(busy)

    markers = splitter.begin_move(scope_keys, new_instance_id, current_of=current_of)

    events = []
    for control_packet in markers:
        marker = control_packet.control
        event = runtime.move_event(vertex_name, marker)
        runtime.note_move_started(vertex_name, marker, event)
        events.append(event)
        # The marker travels the same path as data to the old instance.
        runtime.sim.schedule(
            runtime.params.hop_link_us,
            runtime.nics[marker.old_instance].send,
            control_packet,
            control_packet.size_bits,
        )
    pending = [event for event in events if not event.triggered]
    if pending:
        yield runtime.sim.all_of(pending)
    return MoveResult(
        vertex=vertex_name,
        new_instance=new_instance_id,
        n_keys=len(scope_keys),
        n_markers=len(markers),
        started_at=started_at,
        finished_at=runtime.sim.now,
    )


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
            yield from runtime.notify_split_changed(vertex_name)
            return moved, None
        if instance.alive and runtime.sim.now >= deadline:
            return moved, "ownership never quiesced" if idle else "drain budget exceeded"
    return moved, "instance died"
