"""The datastore client-side library NF instances link against (§4.3, §6).

This is where Table 1's strategies live. For each state object (declared
with a :class:`~repro.store.spec.StateObjectSpec`) the client selects:

* ``NON_BLOCKING`` — write-mostly objects: offload the op, optionally
  without even waiting for the ACK (the library retransmits un-ACK'd
  operations; retransmission is idempotent because the store dedups on the
  (key, clock, seq) identity).
* ``PER_FLOW_CACHE`` — per-flow objects: apply locally on a cached copy
  and flush the *operation* to the store with non-blocking semantics, so
  the store stays current for fault tolerance at zero packet latency.
* ``READ_HEAVY_CACHE`` — rarely-written shared objects: reads are local;
  updates go to the store (blocking), which pushes the new value to every
  other caching instance via callbacks handled here, not by NF code.
* ``SPLIT_AWARE`` — often-written shared objects: cached exactly while the
  upstream traffic split gives this instance exclusive access (the
  framework toggles this, §4.3); otherwise every update is a blocking
  store op.

The client also maintains the instance's write-ahead log of shared-state
operations and read snapshots (§5.4), issues per-packet operation sequence
numbers for duplicate suppression, and XORs (vertex || object) tags into
the packet's bit vector (Figure 6, step 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.analysis import runtime as _sanitize
from repro.simnet.engine import Event, Simulator
from repro.simnet.network import Envelope, Network
from repro.simnet.rpc import RpcEndpoint, RpcGaveUp
from repro.store.breaker import CircuitBreaker
from repro.store.cluster import StoreCluster
from repro.store.keys import NONDET_MARKER, StateKey
from repro.store.operations import OperationRegistry, default_registry
from repro.store.protocol import (
    BatchedOpRequest,
    BulkOwnerMove,
    CallbackMessage,
    NonDetRequest,
    OpRequest,
    OpResult,
    Overloaded,
    OwnerRequest,
    ReadRequest,
    ReadResult,
    WatchRequest,
    WriteRequest,
)
from repro.store.spec import CacheStrategy, Scope, StateObjectSpec
from repro.store.wal import WriteAheadLog
from repro.traffic.packet import Packet
from repro.util import stable_hash


class PacketContext:
    """Per-packet state-access context.

    NF instances process packets on several worker threads concurrently;
    each in-flight packet carries its own context (clock for duplicate
    suppression, per-key op sequence numbers, the bit vector) so contexts
    never interleave across workers. One is built per NF visit, hence a
    slotted class.
    """

    __slots__ = ("packet", "clock", "op_seq")

    def __init__(
        self,
        packet: Optional[Packet] = None,
        clock: int = 0,
        op_seq: Optional[Dict[str, int]] = None,
    ):
        self.packet = packet
        self.clock = clock
        self.op_seq: Dict[str, int] = {} if op_seq is None else op_seq

    def next_seq(self, storage_key: str) -> int:
        seq = self.op_seq.get(storage_key, 0)
        self.op_seq[storage_key] = seq + 1
        return seq


@dataclass
class ClientStats:
    blocking_ops: int = 0
    nonblocking_ops: int = 0
    local_ops: int = 0
    store_reads: int = 0
    cached_reads: int = 0
    callbacks_received: int = 0
    retransmissions: int = 0
    flushes_gave_up: int = 0
    overload_rejections: int = 0
    stale_reads: int = 0


class StateRef:
    """One declared state object as a client sees it.

    Everything here follows from what the client is constructed with
    (``specs``, ``vector_tags``, ``caching_enabled``), so it is resolved
    once per object instead of once per operation.
    """

    __slots__ = ("name", "spec", "strategy", "tag", "logged")

    def __init__(self, name: str, spec: StateObjectSpec, caching_enabled: bool, tag: int):
        self.name = name
        self.spec = spec
        # Effective Table 1 strategy; None = caching globally off (the
        # paper's "EO" model): every op executes at the store.
        self.strategy: Optional[CacheStrategy] = (
            spec.strategy() if caching_enabled else None
        )
        self.tag = tag  # Figure 6 (vertex || object) tag, 0 = untagged
        self.logged = spec.scope is Scope.CROSS_FLOW  # updates go to the WAL


# One speculative fast-path update, resolved (DESIGN.md §10.2): the object,
# its flow key and storage key, the op and its args, the value the shadow
# computed (None when the op is offloaded, not applied locally), and
# whether it was applied locally.
JournalEntry = Tuple[StateRef, Optional[Tuple], str, str, Tuple[Any, ...], Any, bool]

# Bound on a client's (object, flow key) -> storage key table. Entries
# normally leave with the ownership they mirror; keys a client never
# releases (shared objects, flows that simply end) are bounded by this cap,
# at which the table is cleared wholesale and refills from live traffic.
KEY_TABLE_CAP = 1 << 16


class StoreClient:
    """Per-NF-instance state access layer. See module docstring.

    ``specs``, ``vector_tags``, ``caching_enabled`` and ``vertex_id`` are
    fixed at construction and resolved there into one :class:`StateRef`
    per object; only split-awareness (``_exclusive``, flipped by the
    framework as the traffic split changes) is looked up live.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        cluster: StoreCluster,
        vertex_id: str,
        instance_id: str,
        specs: Dict[str, StateObjectSpec],
        vector_tags: Optional[Dict[str, int]] = None,
        wait_for_acks: bool = True,
        caching_enabled: bool = True,
        retransmit_timeout_us: Optional[float] = None,
        registry: Optional[OperationRegistry] = None,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self.sim = sim
        self.cluster = cluster
        self.vertex_id = vertex_id
        self.instance_id = instance_id
        self.specs = specs
        self.vector_tags = vector_tags or {}
        self.wait_for_acks = wait_for_acks
        self.caching_enabled = caching_enabled
        self.retransmit_timeout_us = retransmit_timeout_us
        self.registry = registry or default_registry()
        self.breaker = breaker
        # Overload handling (§8): seeded jitter for Overloaded-reply
        # backoff, plus the last successfully read value per key — what an
        # open breaker serves instead of hammering a saturated store.
        self._overload_rng = random.Random(stable_hash(instance_id) ^ 0x0BAD)
        self._stale: Dict[str, Any] = {}
        self.endpoint = RpcEndpoint(
            sim, network, instance_id, on_message=self._on_callback
        )
        self.wal = WriteAheadLog(instance_id)
        self.stats = ClientStats()

        self._cache: Dict[str, Any] = {}          # per-flow + split-aware values
        self._readheavy_cache: Dict[str, Any] = {}
        self._watched: Set[str] = set()
        self._owned: Dict[str, Tuple[str, Optional[Tuple]]] = {}
        self._exclusive: Dict[str, bool] = {}     # obj name -> split allows caching
        self._refs: Dict[str, StateRef] = {
            name: StateRef(name, spec, caching_enabled, self.vector_tags.get(name, 0))
            for name, spec in specs.items()
        }
        # (obj name, flow key) -> storage key; the reverse of _owned's values
        self._keys: Dict[Tuple[str, Optional[Tuple]], str] = {}
        self._pending_acks: Dict[int, Tuple[Event, Any]] = {}  # ack_id -> (event, request)
        self._ack_seq = 0
        # One armed heap entry for all outstanding flushes; an ACKed flush's
        # timer is dropped without firing.
        self._retransmit_timers = sim.deadline_queue(
            self._maybe_retransmit,
            settled=lambda ack_id, _request, _attempt: ack_id not in self._pending_acks,
        )
        # Fast-path flush batching (§6): while a batch is open, non-blocking
        # flushes are accumulated instead of sent, then coalesced into one
        # BatchedOpRequest per destination store at batch_flush().
        self._batch: Optional[List[OpRequest]] = None
        self.stats_batches_sent = 0

        # default packet context (single-threaded callers / tests); worker
        # threads pass an explicit context instead
        self._default_ctx = PacketContext()

        self._alive = True

    # ------------------------------------------------------------------
    # lifecycle / packet context
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    def fail(self) -> None:
        """Fail-stop with the owning NF instance; all cached state is lost.

        The WAL survives (it models a local disk / persistent log, which is
        what datastore recovery reads, §5.4).
        """
        if not self._alive:
            return
        self._alive = False
        self.endpoint.fail()
        self._cache.clear()
        self._readheavy_cache.clear()
        self._stale.clear()
        self._keys.clear()

    def make_context(self, packet: Optional[Packet]) -> PacketContext:
        """A fresh per-packet context (clock, op sequence numbers)."""
        return PacketContext(
            packet=packet, clock=packet.clock if packet is not None else 0
        )

    def begin_packet(self, packet: Optional[Packet]) -> None:
        """Set the *default* packet context (single-threaded use only)."""
        self._default_ctx = self.make_context(packet)

    def _key(self, obj_name: str, flow_key: Optional[Tuple]) -> str:
        """The storage key of ``(obj_name, flow_key)``, interned per client.

        Exactly ``StateKey(vertex, obj_name, flow_key).storage_key()`` —
        built there once, then a table lookup. Flow keys are projections of
        packet headers (tuples of ``str`` / ``int``), so equal tuples always
        render the same string. The table is per client: a fresh chain
        starts empty, and a crashed client's table dies with it.
        """
        ref = (obj_name, flow_key)
        storage_key = self._keys.get(ref)
        if storage_key is None:
            if len(self._keys) >= KEY_TABLE_CAP:
                self._keys.clear()
            storage_key = self._keys[ref] = StateKey(
                self.vertex_id, obj_name, flow_key
            ).storage_key()
        return storage_key

    def _resolve(self, obj_name: str, flow_key: Optional[Tuple]) -> Tuple[StateRef, str]:
        """A state reference: the object's resolved metadata + storage key."""
        ref = self._refs.get(obj_name)
        if ref is None:
            raise KeyError(f"{self.instance_id}: undeclared state object {obj_name!r}")
        return ref, self._key(obj_name, flow_key)

    def _caches_writes(self, ref: StateRef) -> bool:
        """Do updates of this object apply against the local cache right now?

        Per-flow objects always; split-aware ones exactly while the traffic
        split gives this instance exclusive access (a live lookup — the
        framework flips it at run time, §4.3).
        """
        strategy = ref.strategy
        return strategy is CacheStrategy.PER_FLOW_CACHE or (
            strategy is CacheStrategy.SPLIT_AWARE
            and self._exclusive.get(ref.name, False)
        )

    def _dst(self, storage_key: str) -> str:
        return self.cluster.endpoint_for_key(storage_key)

    # How many times a blocking call / an un-ACK'd flush is reissued before
    # giving up. Generous on purpose: a budget this size outlasts any
    # plausible partition or store-recovery window, while still bounding
    # the retransmission storm a permanently-dead destination can cause.
    BLOCKING_RETRY_BUDGET = 12
    FLUSH_RETRY_BUDGET = 100
    # How many consecutive Overloaded rejections a blocking call absorbs
    # (with exponential backoff) before it is treated like an RPC give-up.
    OVERLOAD_RETRY_BUDGET = 64
    # Flush retransmission backoff: each un-ACK'd reissue waits
    # base * FLUSH_BACKOFF^attempt (exponent capped) before the next
    # timeout check. A *fixed* re-arm interval melts down once the store's
    # round-trip latency exceeds it: every pending flush reissues each
    # interval, the store's inbound backlog grows, replies slip past the
    # next timeout, and the storm feeds itself (congestion collapse —
    # observed on the real-socket fabric, where latency is real).
    FLUSH_BACKOFF = 1.5
    FLUSH_BACKOFF_CAP = 8  # max multiplier 1.5**8 ~ 25.6x the base timeout

    def _blocking_call(self, storage_key: str, payload: Any) -> Generator:
        """Issue a blocking RPC to the store instance holding ``storage_key``.

        With a retransmission timeout configured, the call is retried with
        exponential backoff (seeded jitter, bounded budget) and the
        destination is *re-resolved from the cluster map on every attempt* —
        a retry issued during a store failover lands on the replacement
        instance as soon as the routing swap happens. Safe because the store
        dedups packet-induced ops on their (key, clock, seq) identity and
        reads are idempotent. Without a timeout this is a bare call_event
        (the seed's behaviour: lossless links, no retransmission).

        Overload layer (§8): data-plane calls (ops/reads) pass through the
        circuit breaker when one is configured — an open breaker parks the
        call until a probe window — and an ``Overloaded`` admission
        rejection is retried after seeded-jitter backoff. Control-plane
        calls (ownership moves, watches) bypass the breaker so an overload
        episode cannot wedge handover or recovery.
        """
        breaker = (
            self.breaker
            if isinstance(payload, (OpRequest, ReadRequest))
            else None
        )
        overload_attempts = 0
        while True:
            if breaker is not None:
                yield from breaker.acquire()
            started = self.sim.now
            try:
                if self.retransmit_timeout_us is None:
                    result = yield self.endpoint.call_event(
                        self._dst(storage_key), payload
                    )
                else:
                    result = yield from self.endpoint.call(
                        lambda: self._dst(storage_key),
                        payload,
                        timeout_us=self.retransmit_timeout_us,
                        max_retries=self.BLOCKING_RETRY_BUDGET,
                        backoff=1.5,
                    )
            except RpcGaveUp:
                if breaker is not None:
                    breaker.record_failure()
                raise
            if isinstance(result, Overloaded):
                self.stats.overload_rejections += 1
                if breaker is not None:
                    breaker.record_failure()
                overload_attempts += 1
                if overload_attempts >= self.OVERLOAD_RETRY_BUDGET:
                    raise RpcGaveUp(
                        f"{self.instance_id}: store stayed overloaded for"
                        f" {storage_key}"
                    )
                delay = result.retry_after_us * (1.5 ** min(overload_attempts, 8))
                delay *= 1.0 + 0.25 * self._overload_rng.random()
                yield self.sim.timeout(delay)
                continue
            if breaker is not None:
                breaker.record_result(self.sim.now - started)
            return result

    # ------------------------------------------------------------------
    # update path
    # ------------------------------------------------------------------

    def update(
        self,
        obj_name: str,
        flow_key: Optional[Tuple],
        op: str,
        *args: Any,
        need_result: bool = False,
        ctx: Optional[PacketContext] = None,
    ) -> Generator:
        """Issue a state update per the object's Table 1 strategy.

        Generator — drive with ``yield from``. ``need_result=True`` states
        that the NF consumes the operation's return value (e.g. the NAT
        popping a free port); the client then picks the cheapest mechanism
        that can deliver it (a local cached apply, else a blocking op).
        With ``caching_enabled=False`` (the paper's "EO" model) every
        update is offloaded: non-blocking unless a result is needed.
        """
        ref, storage_key = self._resolve(obj_name, flow_key)
        request = self._issue(ctx or self._default_ctx, ref, storage_key, op, args)
        strategy = ref.strategy
        if strategy is None or strategy is CacheStrategy.NON_BLOCKING:
            if not need_result:
                self._nonblocking(request)
                if self.wait_for_acks:
                    # The packet waits for the bare ACK on the blocking
                    # send path: an Overloaded reply is retried there, not
                    # taken for the ACK (which would lose the op).
                    yield from self._blocking_call(storage_key, request)
                return None
        elif self._caches_writes(ref):
            self._claim(request, ref, flow_key)
            if storage_key not in self._cache and op not in self._OVERWRITE_OPS:
                return (yield from self._seed_cache(request))
            current = self._cache.get(storage_key, ref.spec.initial_value)
            new_value, return_value = self.registry.apply(op, current, args)
            self._store_local(request, new_value)
            return return_value
        # Blocking at the store: the NF needs the result, a read-heavy
        # object's rare update (the store returns the updated object and
        # pushes callbacks to the other caching instances), or a split-aware
        # object this instance does not have to itself.
        result: OpResult = yield from self._blocking_call(storage_key, request)
        self.stats.blocking_ops += 1
        if strategy is CacheStrategy.READ_HEAVY_CACHE and (
            storage_key in self._readheavy_cache or storage_key in self._watched
        ):
            self._readheavy_cache[storage_key] = result.value
        return result.value

    def _issue(
        self, ctx: PacketContext, ref: StateRef, storage_key: str, op: str, args: Tuple
    ) -> OpRequest:
        """Stamp one update on its packet — the single definition of "an
        op": per-(packet, key) sequence number, Figure 6 step 1 bit-vector
        XOR, cross-flow WAL entry, and the request the store will see
        (blocking until a sender decides otherwise)."""
        seq = ctx.next_seq(storage_key)
        tag = ref.tag
        if tag and ctx.packet is not None:
            ctx.packet.bitvector ^= tag
        clock = ctx.clock
        if ref.logged:
            self.wal.log_update(clock, storage_key, op, args, seq, self.sim.now)
        # one per update: positional (cheaper than keywords), in field order
        # key, op, args, instance, clock, seq, blocking, vector_tag, log_update
        return OpRequest(
            storage_key, op, args, self.instance_id, clock, seq, True, tag, clock > 0
        )

    def _claim(self, request: OpRequest, ref: StateRef, flow_key: Optional[Tuple]) -> None:
        """Ownership of a per-flow object is claimed by the key metadata on
        its first flushed write — no extra round trip (§4.3)."""
        if ref.strategy is CacheStrategy.PER_FLOW_CACHE and request.key not in self._owned:
            request.claim_owner = True
            self._owned[request.key] = (ref.name, flow_key)

    def _flush(self, request: OpRequest) -> None:
        """Send an op nobody waits for: into the open fast-path batch, else
        on its own with the ACK tracked so ack_barrier() can fence it.

        "Else" includes a fast-path worker whose batch a sibling worker of
        the same instance already flushed (they share this client) while it
        was parked on downstream backpressure.
        """
        request.blocking = False
        if self._batch is not None:
            self._batch.append(request)
        else:
            self._send_tracked(self._dst(request.key), request)

    def _nonblocking(self, request: OpRequest) -> None:
        """Offload an op: the store answers it with a bare ACK. Flushed
        here, unless ``wait_for_acks`` (the EO / EO+C models) has the
        caller send it and await that ACK."""
        self.stats.nonblocking_ops += 1
        if self.wait_for_acks:
            request.blocking = False
            return
        self._flush(request)

    def _note_cache_fill(self, storage_key: str) -> None:
        """Ownership-sanitizer hook: this client now caches ``storage_key``.

        Per-flow cache fills assert single-writer discipline exactly like
        store applies do — two clients caching one key inside a handover
        epoch is the transient window a planned re-home can open.
        """
        suite = _sanitize.ACTIVE
        if suite is not None:
            suite.note_cache_write(self.sim, storage_key, self.instance_id)

    # Operations that fully overwrite the value need no current state, so a
    # cold cache can apply them locally without first consulting the store.
    _OVERWRITE_OPS = frozenset({"set"})

    def _seed_cache(self, request: OpRequest) -> Generator:
        """First cached update of a key this client holds no copy of.

        A *cold* cache (first touch after instance creation, failover or a
        handover) must not apply against ``initial_value`` — the store may
        hold live state (e.g. the NAT's remaining free ports). The op runs
        blocking at the store, which returns the updated object to seed the
        cache (§4.3); everything after is local.
        """
        request.return_state = True
        result: OpResult = yield from self._blocking_call(request.key, request)
        self.stats.blocking_ops += 1
        if result.state is not None:
            self._note_cache_fill(request.key)
            self._cache[request.key] = result.state
        # else: rejected (not the owner), or an emulated duplicate that
        # carried no state — don't poison the cache
        return result.value

    def _store_local(self, request: OpRequest, new_value: Any) -> None:
        """A cached update takes effect: the value locally, the *operation*
        to the store — non-blocking by design (Table 1), so it never stalls
        the packet path and the store stays current for fault tolerance."""
        if request.key not in self._cache:
            self._note_cache_fill(request.key)
        self._cache[request.key] = new_value
        self.stats.local_ops += 1
        self._flush(request)

    def commit(self, packet: Packet, journal: List[JournalEntry], cached_reads: int) -> None:
        """Make one packet's speculative fast-path action real (§10.3).

        Synchronous, one pass, no store round trip: the shadow that built
        ``journal`` already established, in this same uninterrupted
        segment, that every entry is locally servable — and for locally
        applied entries it computed the new value against this client's
        cache, which nothing can have changed since. Per entry this is
        exactly what :meth:`update` does for a warm key: stamp the op
        (:meth:`_issue`), claim a first write, store and flush.
        """
        self.stats.cached_reads += cached_reads
        if not journal:
            return
        ctx = self.make_context(packet)
        for ref, flow_key, storage_key, op, args, new_value, local in journal:
            request = self._issue(ctx, ref, storage_key, op, args)
            if local:
                self._claim(request, ref, flow_key)
                self._store_local(request, new_value)
            else:
                self.stats.nonblocking_ops += 1
                self._flush(request)

    # ------------------------------------------------------------------
    # fast-path flush batching (§6)
    # ------------------------------------------------------------------

    def batch_begin(self) -> None:
        """Open a flush batch: subsequent non-blocking flushes accumulate."""
        if self._batch is None:
            self._batch = []

    def batch_flush(self) -> List[Event]:
        """Close the batch and send one BatchedOpRequest per store.

        Every accumulated entry keeps its individual (key, clock, seq,
        vector_tag) identity, so dedup, WAL replay and commit signals are
        exactly as if the flushes had been sent one by one. Returns the
        ACK events (tracked for ack_barrier / retransmission like any
        other flush).
        """
        entries = self._batch
        self._batch = None
        if not entries:
            return []
        return self._send_batched(entries)

    def _send_batched(self, entries: List[OpRequest], attempt: int = 0) -> List[Event]:
        # Destinations are resolved at send time (and re-resolved, regrouped
        # on every retransmission) so batches follow a store failover.
        groups: Dict[str, List[OpRequest]] = {}
        for entry in entries:
            groups.setdefault(self._dst(entry.key), []).append(entry)
        acks: List[Event] = []
        for dst, group in groups.items():
            batch = BatchedOpRequest(entries=tuple(group), instance=self.instance_id)
            acks.append(self._send_tracked(dst, batch, attempt))
            self.stats_batches_sent += 1
        return acks

    @staticmethod
    def _flush_retryable(request: Any) -> bool:
        """Only packet-induced ops are reissued — their (key, clock, seq)
        identity makes the retry idempotent at the store."""
        if isinstance(request, BatchedOpRequest):
            return any(e.log_update and e.clock for e in request.entries)
        return bool(request.log_update and request.clock)

    def _reissue(self, request: Any, attempt: int) -> None:
        if isinstance(request, BatchedOpRequest):
            self.stats.retransmissions += 1
            self._send_batched(list(request.entries), attempt)
            return
        self._send_tracked(self._dst(request.key), request, attempt)
        self.stats.retransmissions += 1

    def _send_tracked(self, dst: str, request: Any, attempt: int = 0) -> Event:
        """Send a flush whose ACK is tracked (ack_barrier, retransmission);
        its reply is handled inside the response delivery itself."""
        self._ack_seq += 1
        ack_id = self._ack_seq
        ack = self.endpoint.call_event(
            dst,
            request,
            on_reply=lambda event: self._on_flush_reply(ack_id, request, attempt, event),
        )
        self._pending_acks[ack_id] = (ack, request)
        if self.retransmit_timeout_us is not None:
            delay = self.retransmit_timeout_us * (
                self.FLUSH_BACKOFF ** min(attempt, self.FLUSH_BACKOFF_CAP)
            )
            self._retransmit_timers.add(delay, ack_id, request, attempt)
        return ack

    def _on_flush_reply(self, ack_id: int, request: OpRequest, attempt: int,
                        event: Event) -> None:
        """A tracked flush got its reply.

        Normally that reply is the ACK; an ``Overloaded`` reply consumed
        the ACK slot but the operation was NOT applied, so the flush is
        reissued after backoff (bounded by the flush budget) — silently
        accepting it would lose state.
        """
        if self._pending_acks.pop(ack_id, None) is None:
            return
        if not (event.ok and isinstance(event.value, Overloaded)):
            return  # a true ACK — done
        self.stats.overload_rejections += 1
        if not self._alive:
            return
        if not self._flush_retryable(request) or (
            attempt + 1 >= self.FLUSH_RETRY_BUDGET
        ):
            # Only packet-induced ops are retried (their (key, clock, seq)
            # identity makes the reissue idempotent at the store).
            self.stats.flushes_gave_up += 1
            return
        delay = event.value.retry_after_us * (1.5 ** min(attempt, 8))
        delay *= 1.0 + 0.25 * self._overload_rng.random()
        self.sim.schedule(delay, self._reissue_overloaded, request, attempt + 1)

    def _reissue_overloaded(self, request: OpRequest, attempt: int) -> None:
        if not self._alive:
            return
        self._reissue(request, attempt)

    def _maybe_retransmit(self, ack_id: int, request: OpRequest, attempt: int) -> None:
        """Reissue an un-ACK'd flush (bounded: FLUSH_RETRY_BUDGET attempts).

        The destination is re-resolved from the cluster map on every
        attempt, so retransmissions follow a store failover. The seed
        retransmitted forever; a budget bounds the storm a permanently
        unreachable store causes, and give-ups are counted so invariant
        checkers can flag potentially-lost state."""
        if not self._alive or ack_id not in self._pending_acks:
            return
        if not self._flush_retryable(request):
            # Only packet-induced ops are retransmitted: their (key, clock,
            # seq) identity makes retransmission idempotent at the store.
            return
        self._pending_acks.pop(ack_id, None)
        if attempt + 1 >= self.FLUSH_RETRY_BUDGET:
            self.stats.flushes_gave_up += 1
            return
        self._reissue(request, attempt + 1)

    def ack_barrier(self) -> Event:
        """An event that fires once every outstanding un-ACK'd op is ACK'd.

        Used by the handover protocol's flush step (Figure 4 step 5): only
        *operations* are flushed, never state — which is why CHC's move is
        so much cheaper than OpenNF's (§7.3 R2).

        An open fast-path batch is force-flushed first: entries accumulated
        but not yet sent would otherwise slip past the handover fence.
        """
        if self._batch:
            entries = self._batch
            self._batch = []
            self._send_batched(entries)
        pending = [
            event for event, _request in self._pending_acks.values() if not event.triggered
        ]
        return self.sim.all_of(pending)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def read(
        self,
        obj_name: str,
        flow_key: Optional[Tuple],
        ctx: Optional[PacketContext] = None,
    ) -> Generator:
        """Read a state object per its strategy (generator, ``yield from``)."""
        ctx = ctx or self._default_ctx
        ref, storage_key = self._resolve(obj_name, flow_key)
        spec = ref.spec
        if self._caches_writes(ref):
            if storage_key in self._cache:
                self.stats.cached_reads += 1
                return self._cache[storage_key]
            result = yield from self._read_through(storage_key, spec, ctx)
            value = result.value if result.value is not None else spec.initial_value
            self._note_cache_fill(storage_key)
            self._cache[storage_key] = value
            return value

        if ref.strategy is CacheStrategy.READ_HEAVY_CACHE:
            if storage_key in self._readheavy_cache:
                self.stats.cached_reads += 1
                return self._readheavy_cache[storage_key]
            yield from self._blocking_call(
                storage_key,
                WatchRequest(key=storage_key, endpoint=self.instance_id, kind="value"),
            )
            self._watched.add(storage_key)
            result = yield from self._read_through(storage_key, spec, ctx)
            value = result.value if result.value is not None else spec.initial_value
            self._readheavy_cache[storage_key] = value
            return value

        # Caching off, NON_BLOCKING objects and non-exclusive SPLIT_AWARE:
        # read through.
        result = yield from self._read_through(storage_key, spec, ctx)
        return result.value if result.value is not None else spec.initial_value

    def _read_through(
        self,
        storage_key: str,
        spec: StateObjectSpec,
        ctx: Optional[PacketContext] = None,
    ) -> Generator:
        """A store read, degraded to the last-seen value when the breaker
        is open (§8, Table 1's stale-tolerant path).

        Serving the stale snapshot keeps the packet path moving without
        amplifying load on a saturated store. No WAL read-log entry is
        written for a stale serve: recovery must only see values the store
        actually returned.
        """
        if (
            self.breaker is not None
            and not self.breaker.allows_request()
            and storage_key in self._stale
        ):
            self.stats.stale_reads += 1
            return ReadResult(value=self._stale[storage_key])
        result = yield from self._store_read(storage_key, spec, ctx)
        return result

    def _store_read(
        self,
        storage_key: str,
        spec: StateObjectSpec,
        ctx: Optional[PacketContext] = None,
    ) -> Generator:
        ctx = ctx or self._default_ctx
        result: ReadResult = yield from self._blocking_call(
            storage_key, ReadRequest(key=storage_key, instance=self.instance_id)
        )
        self.stats.store_reads += 1
        if self.breaker is not None:
            self._stale[storage_key] = result.value
        if spec.scope is Scope.CROSS_FLOW:
            self.wal.log_read(ctx.clock, storage_key, result.value, result.ts, at=self.sim.now)
        return result

    # ------------------------------------------------------------------
    # ownership / handover primitives (Figure 4)
    # ------------------------------------------------------------------

    def disassociate(self, obj_name: str, flow_key: Optional[Tuple]) -> Generator:
        """Flush the cached value, then release ownership (Figure 4 step 5)."""
        storage_key = self._key(obj_name, flow_key)
        if storage_key in self._cache:
            yield from self._blocking_call(
                storage_key,
                WriteRequest(key=storage_key, value=self._cache.pop(storage_key),
                             instance=self.instance_id),
            )
        yield from self._blocking_call(
            storage_key,
            OwnerRequest(key=storage_key, instance=self.instance_id, action="disassociate"),
        )
        self._owned.pop(storage_key, None)
        self._keys.pop((obj_name, flow_key), None)

    def owned_items(self) -> Dict[str, Tuple[str, Optional[Tuple]]]:
        """storage_key -> (object name, flow key) for owned per-flow state."""
        return dict(self._owned)

    def adopt_keys(self, items) -> int:
        """Record ownership of keys handed over by a completed move.

        ``items`` is an iterable of ``(storage_key, obj_name, flow_key)``
        describing what the old instance's bulk release covered. The store
        already names this instance the owner; recording it client-side is
        what lets a *later* move re-release the keys even if this instance
        never processed a packet of the moved flows in between (a flow moved
        twice in quick succession must not strand its state). Values are not
        adopted — the cache stays cold, so the first touch still seeds from
        the store (§4.3).
        """
        owned = self._owned
        adopted = 0
        for storage_key, obj_name, flow_key in items:
            if storage_key not in owned:
                owned[storage_key] = (obj_name, flow_key)
                adopted += 1
        return adopted

    def release_keys_bulk(
        self, storage_keys: List[str], new_instance: str, notify_key: str
    ) -> Generator:
        """Hand a group of per-flow keys to ``new_instance`` in ONE store
        message (Figure 4 step 5 + §7.3 R2's cheap move). Drops local
        cached copies; cached *operations* were already flushed (the
        caller holds the ack barrier)."""
        if not storage_keys:
            return 0
        by_store: Dict[str, List[str]] = {}
        for key in storage_keys:
            by_store.setdefault(self._dst(key), []).append(key)
            self._cache.pop(key, None)
            released = self._owned.pop(key, None)
            if released is not None:
                self._keys.pop(released, None)
        moved = 0
        for _dst, keys in sorted(by_store.items()):
            # Re-resolve through the group's first key so a retry after a
            # store failover follows the cluster map.
            moved += yield from self._blocking_call(
                keys[0],
                BulkOwnerMove(
                    keys=tuple(keys),
                    old_instance=self.instance_id,
                    new_instance=new_instance,
                    notify_key=notify_key,
                ),
            )
        return moved

    # ------------------------------------------------------------------
    # split-aware cache control (§4.3 "Cross-flow state")
    # ------------------------------------------------------------------

    def set_exclusive(self, obj_name: str, exclusive: bool) -> Generator:
        """Framework notification that the traffic split (no longer) gives
        this instance exclusive access to ``obj_name``.

        Turning exclusivity *off* flushes: outstanding op ACKs are awaited
        and local copies dropped, so other instances see current state.
        """
        was = self._exclusive.get(obj_name, False)
        self._exclusive[obj_name] = exclusive
        if was and not exclusive:
            yield self.ack_barrier()
            prefix = StateKey(self.vertex_id, obj_name).object_id()
            for key in [k for k in self._cache if k.startswith(prefix)]:
                del self._cache[key]
        return None

    # ------------------------------------------------------------------
    # non-determinism (Appendix A)
    # ------------------------------------------------------------------

    def nondet(
        self, purpose: str, kind: str = "random", ctx: Optional[PacketContext] = None
    ) -> Generator:
        """Store-computed non-deterministic value for the current packet."""
        ctx = ctx or self._default_ctx
        storage_key = self._key(NONDET_MARKER, None)
        value = yield from self._blocking_call(
            storage_key, NonDetRequest(clock=ctx.clock, purpose=purpose, kind=kind)
        )
        return value

    # ------------------------------------------------------------------
    # recovery support
    # ------------------------------------------------------------------

    def per_flow_snapshot(self) -> Dict[str, Any]:
        """Current cached per-flow values (read by store recovery, §5.4)."""
        return dict(self._cache)

    def drop_pending_flushes(self, storage_keys) -> int:
        """Cancel retransmission of un-ACK'd ops on the given keys.

        Store recovery restores these keys from this client's cache, which
        already reflects every flushed-but-unacknowledged operation —
        retransmitting them afterwards would double-apply.
        """
        keys = set(storage_keys)
        return self._cancel_pending(lambda op: op.key in keys)

    def cancel_pending_flushes(self, identities) -> int:
        """Cancel un-ACK'd flushes whose ``(key, clock, seq)`` is covered.

        Store recovery passes the identities it accounts for — ops in the
        checkpoint's duplicate-suppression log plus ops it re-executes from
        this client's WAL. Retransmitting those would double-apply at the
        replacement (its dedup log no longer remembers old ACK-lost ops).
        Un-covered pending flushes keep retransmitting: they were lost in
        flight and the retransmission is what recovers them.
        """
        return self._cancel_pending(
            lambda op: (op.key, op.clock, op.seq) in identities
        )

    def _cancel_pending(self, covered: Callable[[OpRequest], bool]) -> int:
        """Stop tracking every un-ACK'd op ``covered`` selects; returns how
        many. A batch loses only its covered entries."""
        cancelled = 0
        for ack_id, (_event, request) in list(self._pending_acks.items()):
            if isinstance(request, BatchedOpRequest):
                surviving = tuple(e for e in request.entries if not covered(e))
                if len(surviving) != len(request.entries):
                    cancelled += len(request.entries) - len(surviving)
                    if surviving:
                        # The retransmit closure holds this same object, so
                        # shrinking it in place covers future reissues too.
                        request.entries = surviving
                    else:
                        del self._pending_acks[ack_id]
            elif covered(request):
                del self._pending_acks[ack_id]
                cancelled += 1
        return cancelled

    # ------------------------------------------------------------------
    # callback handling
    # ------------------------------------------------------------------

    def _on_callback(self, envelope: Envelope) -> None:
        message = envelope.payload
        if not isinstance(message, CallbackMessage):
            return
        self.stats.callbacks_received += 1
        if message.kind == "value":
            if message.key in self._readheavy_cache or message.key in self._watched:
                self._readheavy_cache[message.key] = message.value
