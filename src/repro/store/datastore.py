"""A datastore instance: sharded, multi-threaded, lock-free key-value store.

Design points from the paper (§4.3, §5.3, §5.4):

* Each instance runs several threads; **each state object is handled by a
  single thread** (keys hash onto threads) so no locking is needed.
* NFs offload *operations*; the store serializes ops from different
  instances of a vertex and applies them in the background (non-blocking)
  or synchronously (blocking).
* For every packet-induced update the store logs the resulting value keyed
  by the packet's logical clock; a replayed update with an already-applied
  clock is **emulated** — the logged value is returned without re-applying
  (Figure 5b). Logs are pruned when the root deletes the packet.
* On committing an update the store signals the root with the packet clock
  and the (instance ID || object ID) tag, feeding the XOR bit-vector
  delete protocol (Figure 6, step 2).
* The store checkpoints state periodically together with ``TS`` — the last
  executed clock per NF instance — enabling Figure 7 recovery.
* Appendix A: non-deterministic values are computed (and remembered) by
  the store, keyed by packet clock, so replay observes identical values.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.analysis import runtime as _sanitize
from repro.simnet.engine import Channel, Process, Simulator
from repro.util import Memo, stable_hash
from repro.simnet.network import Envelope, Network
from repro.simnet.rpc import RpcEndpoint, RpcRequest
from repro.store.keys import vertex_of_key
from repro.store.operations import DELETE_OP, OperationRegistry, default_registry
from repro.store.protocol import (
    BatchedOpRequest,
    BatchedCommitSignal,
    BatchedPruneRequest,
    BulkOwnerMove,
    CloneRegistration,
    LockReadRequest,
    CallbackMessage,
    CheckpointControl,
    CommitSignal,
    NonDetRequest,
    OpRequest,
    OpResult,
    Overloaded,
    OwnerRequest,
    PruneRequest,
    ReadRequest,
    ReadResult,
    SnapshotRequest,
    TakeoverRequest,
    UnwatchRequest,
    WatchRequest,
    WriteRequest,
    WriteUnlockRequest,
)

DEFAULT_OP_SERVICE_US = 0.196  # ~5.1M ops/s per thread (§7.1 datastore bench)
# Worker threads per datastore instance.
STORE_THREADS = 4

# Logical clocks carry the issuing root's instance ID in their high bits
# (§5: "we encode the identifier of the root instance into the higher order
# bits"), which is how the store routes commit signals and how the
# framework delivers delete requests to the right root.
_ROOT_ID_SHIFT = 56

# What the per-op body returns as the value of a write by a non-owner.
_REJECTED = object()
# What the dedup log holds for an identity it never logged.
_UNLOGGED = object()

#: One logged update: (key, packet clock, op seq).
Identity = Tuple[str, int, int]


@dataclass
class Checkpoint:
    """A point-in-time snapshot with TS metadata (§5.4).

    ``ts`` maps key -> {instance -> clock of that instance's last executed
    update on the key at checkpoint time}. ``update_log`` is the
    duplicate-suppression log at checkpoint time (identity -> committed
    value): recovery seeds the replacement with it so a client
    retransmitting an op whose effect the checkpoint already contains is
    emulated rather than double-applied.
    """

    taken_at: float
    data: Dict[str, Any]
    ts: Dict[str, Dict[str, int]]
    update_log: Dict[Identity, Any] = field(default_factory=dict)


class _BatchState:
    """Join counter for a :class:`BatchedOpRequest` split across threads."""

    __slots__ = ("remaining", "emulated")

    def __init__(self, remaining: int):
        self.remaining = remaining
        self.emulated = 0


class _BatchShard:
    """The slice of a batch whose keys hash onto one store thread.

    Sharding the batch keeps the per-key single-thread invariant: every
    entry is still applied by the thread that owns its key, in entry order.
    """

    __slots__ = ("entries", "state")

    def __init__(self, entries: Tuple[OpRequest, ...], state: _BatchState):
        self.entries = entries
        self.state = state


@dataclass
class StoreStats:
    ops_applied: int = 0
    ops_emulated: int = 0
    reads: int = 0
    writes: int = 0
    rejected: int = 0
    callbacks_sent: int = 0
    commit_signals: int = 0
    overload_rejections: int = 0


class _AllVertices:
    """The set of every vertex: a whole node's worth of keys."""

    def __contains__(self, vertex: object) -> bool:
        return True


ALL_VERTICES = _AllVertices()
VertexSet = Union[FrozenSet[str], _AllVertices]


def vertex_set(vertices: Optional[Iterable[str]]) -> VertexSet:
    """``None`` means every vertex (the whole-node case)."""
    return ALL_VERTICES if vertices is None else frozenset(vertices)


def _touches(payload: Any, vertices: VertexSet) -> bool:
    """Does a request (or queued batch shard) address a key of ``vertices``?

    The one predicate behind the lame-duck mute and the re-homing drain
    gate. A batch counts if ANY entry does: its whole ACK is withheld, the
    retransmission re-groups entries by destination per attempt, so moved
    entries reach the new node and the rest re-land here as duplicates.
    """
    if vertices is ALL_VERTICES:
        return True
    if isinstance(payload, (BatchedOpRequest, _BatchShard)):
        return any(vertex_of_key(entry.key) in vertices for entry in payload.entries)
    if isinstance(payload, BulkOwnerMove):
        return any(vertex_of_key(key) in vertices for key in payload.keys)
    key = getattr(payload, "key", None)
    return key is not None and vertex_of_key(key) in vertices


class DatastoreInstance:
    """One store node. See module docstring for the design."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        n_threads: int = STORE_THREADS,
        op_service_us: float = DEFAULT_OP_SERVICE_US,
        registry: Optional[OperationRegistry] = None,
        root_endpoint: Optional[str] = None,
        checkpoint_interval_us: Optional[float] = None,
        dedup_enabled: bool = True,
        mirror: Optional[str] = None,
        sync_replication: bool = False,
        seed: int = 0,
        inflight_limit: Optional[int] = None,
        overload_retry_after_us: float = 50.0,
    ):
        self.sim = sim
        self.name = name
        self.n_threads = n_threads
        # storage key -> index of the thread that owns it
        self._thread_memo = Memo(lambda key: stable_hash(key) % n_threads)
        self.op_service_us = op_service_us
        self.per_key_metadata_us = 0.02  # bulk ownership moves (§7.3 R2)
        self.registry = registry or default_registry()
        self.root_endpoint = root_endpoint
        self._root_names: Dict[int, str] = {}  # root id -> formatted endpoint
        self.checkpoint_interval_us = checkpoint_interval_us
        # Duplicate-update suppression (§5.3). Disabling it reproduces what
        # frameworks without CHC's clock-keyed update log do — the Table 5
        # experiment's "without suppression" arm.
        self.dedup_enabled = dedup_enabled
        # §5.4 "Correlated failures": "Replication of store instances can
        # help recover from such correlated failures, but that comes at the
        # cost of increasing the per packet processing latency." When a
        # mirror is configured, every state-changing request is forwarded
        # to it; synchronous replication withholds the reply until the
        # mirror acknowledges (the latency cost the paper mentions).
        self.mirror = mirror
        self.sync_replication = sync_replication
        # Admission control (§8): reject data-plane work once the aggregate
        # thread backlog reaches the budget. Rejections are retryable
        # (``Overloaded``); control-plane requests are always admitted.
        self.inflight_limit = inflight_limit
        self.overload_retry_after_us = overload_retry_after_us

        self.endpoint = RpcEndpoint(
            sim, network, name,
            on_request=self._on_request, on_message=self._on_message,
        )
        self._data: Dict[str, Any] = {}
        self._owners: Dict[str, Optional[str]] = {}
        self._clones: Dict[str, str] = {}  # original instance -> active clone
        self._lock_holders: Dict[str, str] = {}
        self._lock_waiters: Dict[str, List] = {}
        self._value_watchers: Dict[str, Set[str]] = {}
        self._owner_watchers: Dict[str, Set[str]] = {}
        # (key, clock, op seq) -> committed value: one flat row per update,
        # not a dict per (key, clock), so the collector has nothing to walk
        self._update_log: Dict[Identity, Any] = {}
        # clock -> identities logged under it, so the per-packet prune on
        # delete is O(updates of the packet), not O(log size)
        self._log_clocks: Dict[int, List[Identity]] = {}
        # the log's largest size seen by a prune (see _prune)
        self._log_high_water = 0
        # Clocks whose duplicate-suppression log was pruned. A prune means
        # the root saw the packet's full commit vector, so *every* update
        # with that clock was already applied — any copy that arrives later
        # (a retransmission that was in flight when the ACK-triggered prune
        # fired; real-socket deployments queue frames for a long time) is a
        # duplicate and must be emulated, not re-applied. Without this
        # memory the prune itself would reopen the exactly-once window it
        # exists to close.
        self._pruned_clocks: Set[int] = set()
        # Vertices re-homed to another node (ALL_VERTICES: the whole node):
        # still committed, never answered — see enter_lame_duck. Falsy when
        # nothing was moved off, which keeps the per-op checks free.
        self._lame_duck: VertexSet = frozenset()
        # per-key TS metadata: key -> {instance -> clock of last executed
        # op}. The paper's TS is global per store instance (Figure 7 has a
        # single shared object, where the two coincide); per-key TS is the
        # strictly more precise refinement that makes recovery correct when
        # one store instance holds many objects.
        self._ts: Dict[str, Dict[str, int]] = {}
        self._nondet: Dict[Tuple[int, str], Any] = {}
        self._nondet_rng = random.Random(seed ^ 0x5EED)
        self.last_checkpoint: Optional[Checkpoint] = None
        self.stats = StoreStats()
        self._alive = True

        self._queues: List[Channel] = [
            Channel(sim, name=f"{name}-thread{i}") for i in range(n_threads)
        ]
        self._processes: List[Process] = [
            sim.process(self._thread_loop(queue), name=f"{name}-thread{i}")
            for i, queue in enumerate(self._queues)
        ]
        if checkpoint_interval_us:
            self._processes.append(
                sim.process(self._checkpoint_loop(), name=f"{name}-checkpoint")
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def lame_duck(self) -> bool:
        """True once the *whole* node was re-homed away (awaiting teardown)."""
        return self._lame_duck is ALL_VERTICES

    def enter_lame_duck(self, vertices: Optional[Iterable[str]] = None) -> None:
        """Keep committing, stop talking — for ``vertices`` (``None`` = all).

        The source side of :mod:`repro.store.rehome`, entered in the
        instant routing swaps away. A request touching a moved vertex is
        still applied and logged (the drain gate watches for it), but
        nothing about it leaves the node: no response — so its client
        retransmits onto the destination — no commit signal (both sides
        signalling one clock would corrupt the root's parity) and no
        watcher callback. Permanent: routing never points a moved vertex
        back, and the mute keeps a straggler's phantom state invisible
        until :meth:`forget_vertex` or :meth:`fail` discards it. Other
        vertices keep full service.
        """
        if vertices is None:
            self._lame_duck = ALL_VERTICES
        elif self._lame_duck is not ALL_VERTICES:
            self._lame_duck = self._lame_duck | frozenset(vertices)

    def _muted(self, key: str) -> bool:
        """Was ``key``'s vertex re-homed away? Free when nothing was."""
        vertices = self._lame_duck
        return bool(vertices) and vertex_of_key(key) in vertices

    def _respond(self, request: RpcRequest, value: Any, ok: bool = True) -> None:
        """Answer ``request`` unless it touches a re-homed vertex."""
        vertices = self._lame_duck
        if vertices and _touches(request.payload, vertices):
            return
        self.endpoint.respond(request, value, ok=ok)

    def queued_for(self, vertices: Optional[Iterable[str]] = None) -> bool:
        """Is any request touching ``vertices`` (``None`` = any) still queued?"""
        wanted = vertex_set(vertices)
        return any(
            _touches(payload, wanted)
            for queue in self._queues
            for payload, _request in queue._items
        )

    def forget_vertex(self, vertex_id: str) -> None:
        """Garbage-collect a re-homed vertex's state once traffic quiesced.

        The vertex stays in the lame-duck set (the mute is the permanent
        backstop against stragglers); only the dead copies of its data,
        ownership, TS metadata, watcher registrations and dedup log go, so
        state audits that fold every store's keys into one map never see
        the stale pre-move values.
        """
        for table in (
            self._data, self._owners, self._ts,
            self._value_watchers, self._owner_watchers,
        ):
            for key in [k for k in table if vertex_of_key(k) == vertex_id]:
                del table[key]
        # _log_clocks entries stay: _prune pops _update_log with a default
        for identity in [i for i in self._update_log if vertex_of_key(i[0]) == vertex_id]:
            del self._update_log[identity]

    def fail(self) -> None:
        """Fail-stop: all in-memory state vanishes; endpoint goes dark.

        The last checkpoint is the only thing a recovery can start from
        (it models durable/replicated checkpoint storage, as in ARIES-style
        recovery the paper builds on [18]).
        """
        if not self._alive:
            return
        self._alive = False
        for process in self._processes:
            process.kill()
        self.endpoint.fail()
        self._data.clear()
        self._owners.clear()
        self._update_log.clear()
        self._log_clocks.clear()
        self._ts.clear()
        self._nondet.clear()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    def _thread_for(self, key: str) -> Channel:
        # Stable hash: each key maps to exactly one thread, reproducibly.
        return self._queues[self._thread_memo[key]]

    def _inflight(self) -> int:
        return sum(len(queue) for queue in self._queues)

    def _admission_reject(self, request: RpcRequest) -> bool:
        """Apply the in-flight budget to one data-plane request.

        Returns True when the request was rejected (an ``Overloaded`` reply
        has been sent). Data plane = OpRequest/ReadRequest/LockReadRequest:
        the per-packet load. Ownership moves, writes (flush-on-release),
        watches, takeovers and other control-plane traffic is never
        rejected — overload must not break handover or recovery.
        """
        if self.inflight_limit is None or self._inflight() < self.inflight_limit:
            return False
        self.stats.overload_rejections += 1
        self._respond(
            request, Overloaded(retry_after_us=self.overload_retry_after_us)
        )
        return True

    def _on_request(self, request: RpcRequest) -> None:
        """Queue one request on the thread owning its key, or answer it
        right here (the endpoint calls this at the delivery instant)."""
        payload = request.payload
        if isinstance(payload, OpRequest):
            # Both blocking and non-blocking ops are serialized through
            # the key's thread; a non-blocking op is ACK'd as soon as it
            # is applied (the requester is not waiting either way), so
            # an ACK always means the update is durable in the store —
            # which makes the client's ack_barrier() a true fence for
            # handover flushes (§5.1).
            if self._admission_reject(request):
                return
            self._thread_for(payload.key).put((payload, request))
        elif isinstance(payload, (ReadRequest, LockReadRequest)):
            if self._admission_reject(request):
                return
            self._thread_for(payload.key).put((payload, request))
        elif isinstance(payload, BatchedOpRequest):
            # Data-plane load, so subject to admission control like the
            # individual ops it replaces. The batch is sharded so each
            # entry still runs on the thread owning its key.
            if self._admission_reject(request):
                return
            groups: Dict[int, List[OpRequest]] = {}
            for entry in payload.entries:
                groups.setdefault(self._thread_memo[entry.key], []).append(entry)
            state = _BatchState(len(groups))
            for idx, entries in groups.items():
                self._queues[idx].put((_BatchShard(tuple(entries), state), request))
        elif isinstance(
            payload, (WriteRequest, OwnerRequest, WriteUnlockRequest)
        ):
            self._thread_for(payload.key).put((payload, request))
        elif isinstance(payload, BulkOwnerMove):
            self._thread_for(payload.notify_key or payload.new_instance).put(
                (payload, request)
            )
        elif isinstance(payload, CloneRegistration):
            if payload.register:
                self._clones[payload.original] = payload.clone
            else:
                if self._clones.get(payload.original) == payload.clone:
                    del self._clones[payload.original]
            suite = _sanitize.ACTIVE
            if suite is not None:
                suite.note_store_clone(
                    self.sim, payload.original, payload.clone, payload.register
                )
            self._respond(request, True)
        elif isinstance(payload, TakeoverRequest):
            self._thread_for(payload.new_instance).put((payload, request))
        elif isinstance(payload, WatchRequest):
            watchers = self._watcher_map(payload.kind).setdefault(payload.key, set())
            watchers.add(payload.endpoint)
            self._respond(request, True)
        elif isinstance(payload, UnwatchRequest):
            self._watcher_map(payload.kind).get(payload.key, set()).discard(payload.endpoint)
            self._respond(request, True)
        elif isinstance(payload, PruneRequest):
            self._prune(payload.clock)
        elif isinstance(payload, BatchedPruneRequest):
            for clock in payload.clocks:
                self._prune(clock)
        elif isinstance(payload, NonDetRequest):
            self._respond(request, self._nondet_value(payload))
        elif isinstance(payload, SnapshotRequest):
            snapshot = {
                k: copy.deepcopy(v)
                for k, v in self._data.items()
                if k.startswith(payload.prefix)
            }
            self._respond(request, snapshot)
        elif isinstance(payload, CheckpointControl):
            self.take_checkpoint()
            self._respond(request, self.last_checkpoint.taken_at)
        else:
            self._respond(request, RuntimeError(f"bad request {payload!r}"), ok=False)

    def _on_message(self, envelope: Envelope) -> None:
        """One-way messages from the root: prune notifications, and the
        delete of a store-kept log entry (a fire-and-forget ``delete`` op,
        applied on the key's thread like any op, with no reply)."""
        payload = envelope.payload
        if isinstance(payload, OpRequest):
            self._thread_for(payload.key).put((payload, None))
        elif isinstance(payload, PruneRequest):
            self._prune(payload.clock)
        elif isinstance(payload, BatchedPruneRequest):
            for clock in payload.clocks:
                self._prune(clock)

    def _watcher_map(self, kind: str) -> Dict[str, Set[str]]:
        return self._value_watchers if kind == "value" else self._owner_watchers

    def _replicate(self, payload):
        """Forward a state-changing request to the mirror.

        Returns the mirror's response event when synchronous (the caller
        yields it before replying), else None. Mirrored operations keep
        their (key, clock, seq) identity, so the mirror's duplicate-
        suppression log stays equivalent to the primary's.
        """
        if self.mirror is None:
            return None
        forwarded = copy.copy(payload)
        if isinstance(forwarded, OpRequest):
            forwarded.blocking = True
            forwarded.vector_tag = 0  # the primary already signalled the root
        ack = self.endpoint.call_event(self.mirror, forwarded)
        return ack if self.sync_replication else None

    def _thread_loop(self, queue: Channel):
        while self._alive:
            payload, request = yield queue.get()
            yield self.sim.timeout(self.op_service_us)
            if not self._alive:
                return
            try:
                yield from self._serve(payload, request)
            except Exception as error:  # noqa: BLE001 — a bad request (e.g.
                # an unregistered custom operation) must not kill the
                # thread serving every other key it owns
                if request is not None:
                    self._respond(request, error, ok=False)

    def _serve(self, payload, request):
        """Handle one queued request (thread context; may yield)."""
        if isinstance(payload, OpRequest):
            result = self.apply_operation(payload)
            mirror_ack = self._replicate(payload)
            if mirror_ack is not None:
                yield mirror_ack
            if request is not None:
                self._respond(request, result)
        elif isinstance(payload, _BatchShard):
            # One op_service_us was charged by the thread loop; charge the
            # rest so store CPU time matches the unbatched equivalent — the
            # batching win is in messages and events, not store cycles.
            entries = payload.entries
            if len(entries) > 1:
                yield self.sim.timeout(self.op_service_us * (len(entries) - 1))
            # Nobody waits on an entry's result: the per-op body runs
            # without building one, and the batch gets one ACK.
            state = payload.state
            by_root: Dict[str, List[Tuple[int, int]]] = {}
            for entry in entries:
                if self._apply(entry, by_root)[1]:
                    state.emulated += 1
                if self.mirror is not None:
                    mirror_ack = self._replicate(entry)
                    if mirror_ack is not None:
                        yield mirror_ack
            for destination, sigs in by_root.items():
                if len(sigs) == 1:
                    self.endpoint.send(destination, CommitSignal(*sigs[0]))
                else:
                    self.endpoint.send(destination, BatchedCommitSignal(tuple(sigs)))
            state.remaining -= 1
            if state.remaining == 0 and request is not None:
                self._respond(request, OpResult(value=None, emulated=state.emulated > 0))
        elif isinstance(payload, ReadRequest):
            self._respond(request, self._read(payload))
        elif isinstance(payload, WriteRequest):
            outcome = self._write(payload)
            mirror_ack = self._replicate(payload)
            if mirror_ack is not None:
                yield mirror_ack
            self._respond(request, outcome)
        elif isinstance(payload, OwnerRequest):
            outcome = self._handle_owner(payload)
            mirror_ack = self._replicate(payload)
            if mirror_ack is not None:
                yield mirror_ack
            self._respond(request, outcome)
        elif isinstance(payload, LockReadRequest):
            self._handle_lock_read(payload, request)
        elif isinstance(payload, WriteUnlockRequest):
            self._handle_write_unlock(payload, request)
        elif isinstance(payload, BulkOwnerMove):
            yield self.sim.timeout(self.per_key_metadata_us * max(len(payload.keys), 1))
            outcome = self._handle_bulk_move(payload)
            mirror_ack = self._replicate(payload)
            if mirror_ack is not None:
                yield mirror_ack
            self._respond(request, outcome)
        elif isinstance(payload, TakeoverRequest):
            owned = [k for k, v in self._owners.items() if v == payload.old_instance]
            yield self.sim.timeout(self.per_key_metadata_us * max(len(owned), 1))
            suite = _sanitize.ACTIVE
            for key in owned:
                self._owners[key] = payload.new_instance
                if suite is not None:
                    suite.note_store_transfer(self.sim, key, payload.new_instance, "takeover")
            self._clones.pop(payload.old_instance, None)
            mirror_ack = self._replicate(payload)
            if mirror_ack is not None:
                yield mirror_ack
            self._respond(request, len(owned))

    # ------------------------------------------------------------------
    # state operations
    # ------------------------------------------------------------------

    def apply_operation(self, op: OpRequest) -> OpResult:
        """Serialize-and-apply one offloaded operation (or emulate it).

        Public because store recovery re-executes WAL entries through the
        same path. A non-blocking op's result is the bare ACK; a blocking
        caller gets the op's return value, the key's TS set and — on
        request — a copy of the object.
        """
        value, emulated = self._apply(op, None)
        if not op.blocking:
            return OpResult(value=None, emulated=emulated)
        key = op.key
        state = None
        if value is _REJECTED:
            value = None
        elif op.return_state:
            state = copy.deepcopy(self._data.get(key))
        return OpResult(
            value=value, ts=dict(self._ts.get(key, {})), emulated=emulated, state=state
        )

    def _apply(
        self, op: OpRequest, signal_sink: Optional[Dict[str, List[Tuple[int, int]]]]
    ) -> Tuple[Any, bool]:
        """The per-op body: ownership, dedup log, apply, TS, commit signal.

        Returns ``(value, emulated)`` — the op's return value (the logged
        one for an emulated duplicate, ``_REJECTED`` for a write by a
        non-owner) and whether it was emulated. Builds no result object:
        a batch-served entry's caller reads only ``emulated``.
        ``signal_sink`` (batch-served entries) collects commit signals per
        root instead of sending one message each.
        """
        key = op.key
        instance = op.instance
        owner = self._owners.get(key)
        suite = _sanitize.ACTIVE
        if op.claim_owner and owner is None:
            # First write of a per-flow object: the metadata the client
            # appends to the key associates the instance (§4.3) — no
            # separate association round trip is needed. A registered clone
            # writes on its original's behalf (§5.3), so its first write —
            # which can land before the original's, whose flush was lost —
            # claims for the original: the clone may yet be deregistered.
            self._owners[key] = owner = next(
                (orig for orig, clone in self._clones.items() if clone == instance),
                instance,
            )
            if suite is not None:
                suite.note_store_transfer(self.sim, key, owner, "claim")
        if (
            owner is not None
            and instance
            and owner != instance
            and self._clones.get(owner) != instance
        ):
            self.stats.rejected += 1
            if suite is not None:
                suite.note_store_reject(self.sim, key, instance, owner)
            return _REJECTED, False

        clock = op.clock
        identity = None
        if clock and op.log_update and self.dedup_enabled:
            if clock in self._pruned_clocks:
                # Straggler duplicate of an already-pruned packet: the prune
                # proves every update with this clock committed, and the
                # original's result was consumed long ago (nothing can be
                # awaiting this copy), so the logged value is not needed.
                self.stats.ops_emulated += 1
                return None, True
            identity = (key, clock, op.seq)
            committed = self._update_log.get(identity, _UNLOGGED)
            if committed is not _UNLOGGED:
                # Duplicate: an update with this (key, clock, seq) identity
                # was already applied — emulate it (Figure 5b): return the
                # logged value without touching state or re-signalling root.
                # ``return_state`` is honoured so a clone's first touch can
                # seed its cache from the store's current object ("CHC
                # initializes the clone with the straggler's latest state
                # from the datastore", §5.3).
                self.stats.ops_emulated += 1
                return committed, True

        if suite is not None:
            # Applied (not emulated, not rejected) mutation: the ownership
            # sanitizer checks the writer against the last one it saw.
            suite.note_store_apply(self.sim, key, instance)
        if op.op == DELETE_OP:
            # the root retiring a store-kept log entry: the key goes, so the
            # store-kept log is O(packets in flight), not O(packets seen)
            new_value, return_value = None, self._data.pop(key, None)
        else:
            new_value, return_value = self.registry.apply(op.op, self._data.get(key), op.args)
            self._data[key] = new_value
        self.stats.ops_applied += 1
        if clock and instance:
            # Monotone per instance: a loss-retransmitted op can arrive
            # after a later-issued one, and letting it regress the TS would
            # make a checkpoint re-execute ops it already contains.
            ts = self._ts.get(key)
            if ts is None:
                ts = self._ts[key] = {}
            if clock > ts.get(instance, 0):
                ts[instance] = clock
        if identity is not None:
            self._log_committed(identity, return_value)
        tag = op.vector_tag
        if (
            tag
            and clock
            and self.root_endpoint
            and not self._muted(key)  # re-homed: the destination signals
        ):
            destination = self._root_for(clock)
            if signal_sink is not None:
                # batch-served entry: the caller sends this shard's signals
                # as one message per root (§6 fast path)
                signals = signal_sink.get(destination)
                if signals is None:
                    signal_sink[destination] = [(clock, tag)]
                else:
                    signals.append((clock, tag))
            else:
                self.endpoint.send(destination, CommitSignal(clock, tag))
            self.stats.commit_signals += 1
        if key in self._value_watchers:
            self._notify_value_watchers(key, new_value, exclude=instance)
        return return_value, False

    def _root_for(self, clock: int) -> str:
        """Endpoint of the root that logged ``clock``'s packet: multi-root
        deployments name roots "root{id}", and the clock's high bits carry
        the id. Formatted once per root."""
        root_id = clock >> _ROOT_ID_SHIFT
        name = self._root_names.get(root_id)
        if name is None:
            name = self._root_names[root_id] = self.root_endpoint.format(root_id=root_id)
        return name

    def _read(self, request: ReadRequest) -> ReadResult:
        self.stats.reads += 1
        return ReadResult(
            value=copy.deepcopy(self._data.get(request.key)),
            owner=self._owners.get(request.key),
            ts=dict(self._ts.get(request.key, {})),
        )

    def _write(self, request: WriteRequest) -> bool:
        owner = self._owners.get(request.key)
        suite = _sanitize.ACTIVE
        if owner is not None and request.instance and owner != request.instance:
            self.stats.rejected += 1
            if suite is not None:
                suite.note_store_reject(self.sim, request.key, request.instance, owner)
            return False
        if suite is not None:
            suite.note_store_apply(self.sim, request.key, request.instance)
        self._data[request.key] = request.value
        self.stats.writes += 1
        return True

    def _handle_lock_read(self, payload: LockReadRequest, request) -> None:
        """FIFO per-key locking (StatelessNF-style shared access [17])."""
        key = payload.key
        if key not in self._lock_holders:
            self._lock_holders[key] = payload.instance
            self.stats.reads += 1
            self._respond(
                request, ReadResult(value=copy.deepcopy(self._data.get(key)))
            )
        else:
            self._lock_waiters.setdefault(key, []).append((payload, request))

    def _handle_write_unlock(self, payload: WriteUnlockRequest, request) -> None:
        key = payload.key
        self._data[key] = payload.value
        self.stats.writes += 1
        self._respond(request, True)
        waiters = self._lock_waiters.get(key, [])
        if waiters:
            next_payload, next_request = waiters.pop(0)
            self._lock_holders[key] = next_payload.instance
            self.stats.reads += 1
            self._respond(
                next_request, ReadResult(value=copy.deepcopy(self._data.get(key)))
            )
        else:
            self._lock_holders.pop(key, None)

    def _handle_bulk_move(self, request: BulkOwnerMove) -> int:
        """Swap ownership metadata for a group of keys (one message).

        Fires owner callbacks on the rendezvous key so a waiting new
        instance learns the handover completed (Figure 4 step 6).
        """
        moved = 0
        suite = _sanitize.ACTIVE
        for key in request.keys:
            if self._owners.get(key) in (request.old_instance, None):
                self._owners[key] = request.new_instance
                moved += 1
                if suite is not None:
                    suite.note_store_transfer(self.sim, key, request.new_instance, "bulk_move")
        if self._lame_duck and _touches(request, self._lame_duck):
            # re-homed keys: the mover's un-ACK'd request retransmits to
            # the destination, which fires the rendezvous callback instead
            return moved
        if request.notify_key:
            for watcher in sorted(self._owner_watchers.get(request.notify_key, ())):
                self.endpoint.send(
                    watcher,
                    CallbackMessage(
                        key=request.notify_key, kind="owner", owner=request.new_instance
                    ),
                )
                self.stats.callbacks_sent += 1
        return moved

    def _handle_owner(self, request: OwnerRequest) -> Optional[str]:
        key = request.key
        if request.action == "associate":
            self._owners[key] = request.instance
        elif request.action == "disassociate":
            if self._owners.get(key) == request.instance:
                self._owners[key] = None
        else:
            raise ValueError(f"bad owner action {request.action!r}")
        owner = self._owners.get(key)
        suite = _sanitize.ACTIVE
        if suite is not None:
            suite.note_store_transfer(self.sim, key, owner, request.action)
        if not self._muted(key):
            for watcher in sorted(self._owner_watchers.get(key, ())):
                self.endpoint.send(watcher, CallbackMessage(key=key, kind="owner", owner=owner))
                self.stats.callbacks_sent += 1
        return owner

    def _notify_value_watchers(self, key: str, value: Any, exclude: str = "") -> None:
        if self._muted(key):
            # a re-homed key's phantom writes must not push stale values
            # into caches — the destination owns the watchers now
            return
        for watcher in sorted(self._value_watchers.get(key, ())):
            if watcher == exclude:
                continue
            self.endpoint.send(watcher, CallbackMessage(key=key, kind="value", value=value))
            self.stats.callbacks_sent += 1

    def _nondet_value(self, request: NonDetRequest) -> Any:
        """Appendix A: same (clock, purpose) always returns the same value."""
        cache_key = (request.clock, request.purpose)
        if cache_key not in self._nondet:
            if request.kind == "time":
                self._nondet[cache_key] = self.sim.now
            else:
                self._nondet[cache_key] = self._nondet_rng.random()
        return self._nondet[cache_key]

    def _log_committed(self, identity: Identity, return_value: Any) -> None:
        """Record a committed update in the duplicate-suppression log."""
        log = self._update_log
        if identity not in log:
            clock = identity[1]
            identities = self._log_clocks.get(clock)
            if identities is None:
                self._log_clocks[clock] = [identity]
            else:
                identities.append(identity)
        log[identity] = return_value

    def _prune(self, clock: int) -> None:
        """Drop duplicate-suppression logs for a packet that left the chain."""
        self._pruned_clocks.add(clock)
        log = self._update_log
        for identity in self._log_clocks.pop(clock, ()):
            log.pop(identity, None)
        size = len(log)
        if size > self._log_high_water:
            self._log_high_water = size
        elif size * 8 < self._log_high_water:
            # A dict keeps its largest table after pops: re-pack the two
            # once they drained to an eighth, so a burst's table goes back.
            self._update_log = dict(log)
            self._log_clocks = dict(self._log_clocks)
            self._log_high_water = size
        if self._nondet:
            for nd_key in [k for k in self._nondet if k[0] == clock]:
                del self._nondet[nd_key]

    # ------------------------------------------------------------------
    # checkpointing & introspection
    # ------------------------------------------------------------------

    def take_checkpoint(self) -> Checkpoint:
        self.last_checkpoint = Checkpoint(
            taken_at=self.sim.now,
            data=copy.deepcopy(self._data),
            ts={key: dict(per_key) for key, per_key in self._ts.items()},
            update_log=dict(self._update_log),
        )
        return self.last_checkpoint

    def _checkpoint_loop(self):
        while self._alive:
            yield self.sim.timeout(self.checkpoint_interval_us)
            if not self._alive:
                return
            self.take_checkpoint()

    def peek(self, key: str) -> Any:
        """Direct read for tests/assertions (no simulated cost)."""
        return self._data.get(key)

    def owner_of(self, key: str) -> Optional[str]:
        return self._owners.get(key)

    def keys(self, prefix: str = "") -> List[str]:
        return sorted(k for k in self._data if k.startswith(prefix))

    def logged_clocks(self, key: str) -> List[int]:
        return sorted({clock for (k, clock, _seq) in self._update_log if k == key})

    def vertex_write_load(self, vertex_id: str) -> int:
        """Recent-write proxy: unpruned dedup-log entries for the vertex.

        Log entries are pruned once their packet leaves the chain, so the
        steady-state count tracks write rate x pipeline latency — a far
        better hotness signal than key count (one shared counter key can
        carry most of a store's load).
        """
        return sum(
            1 for (key, _clock, _seq) in self._update_log if vertex_of_key(key) == vertex_id
        )
