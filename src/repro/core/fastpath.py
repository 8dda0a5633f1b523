"""Batched, fused run-ahead fast path for NF chains (§6, "software P4").

Per-packet dispatch — one generator resume, one worker-queue hop and a
handful of store-flush events per packet per NF — dominates the hot path
once flows are established (the ``chain4_general`` ledger workload). Cascone
et al. and Lemur show that NF logic whose state is per-flow-partitionable
compiles into match-action pipelines executed in bulk. This module is the
Python analogue:

* an NF opts in with ``speculative = True``; its one ``process`` body is
  **run ahead** against a :class:`ShadowState` — the
  :class:`~repro.core.nf_api.StateAPI` adapter that answers from the
  instance's local caches without ever yielding to the engine;
* each such instance replaces its per-packet worker loops with
  **batched worker loops**: same flow-sharded queues, but one generator
  resume services a whole batch, per-packet service time is charged as one
  lump timeout, and the batch's state flushes coalesce into one
  :class:`~repro.store.protocol.BatchedOpRequest` per destination store
  instead of one RPC per update;
* adjacent speculative NFs are **fused**: when the downstream vertex is a
  single quiescent instance with an executor, the packet runs its body
  inline instead of crossing the NIC/queue machinery.

Correctness contract (what the equivalence tests in
``tests/test_fastpath.py`` pin down):

* the run-ahead is **speculative** — every state access goes through a
  :class:`ShadowState` journal; any access that cannot be served from the
  local caches raises :class:`~repro.core.nf_api.NotFast` (and a body that
  really yields is closed), the journal is discarded, and the packet
  reruns through the unmodified general path with zero visible side
  effects;
* on success the journal — *resolved* entries: object, storage key, op,
  and the value the shadow computed — is applied once by
  ``StoreClient.commit``, which stamps each op through the same
  ``_issue`` step ``StoreClient.update`` uses, so WAL entries, bit-vector
  tags (Figure 6 step 1), per-packet sequence numbers and store-side
  dedup identities are **byte-identical** to what the general path
  produces;
* per-flow order is preserved end to end: the flow-sharded worker queues
  stay FIFO (ineligible packets are processed inline, in order, through
  the unmodified general machinery), and fusion into a downstream instance
  is latched off while any packet of the same flow is in flight towards or
  queued inside it (``NFInstance._inflight_flows``);
* control traffic — handover markers, replay, clones — never takes the
  fast path; the ``mark_last`` barrier traverses the same worker queues as
  before, so a handover flush still fences every queued packet (and
  ``ack_barrier`` force-flushes any open batch).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.nf_api import NetworkFunction, NotFast, Output, StateAPI
from repro.simnet.network import HOP_LINK_US
from repro.simnet.nic import NIC_OVERHEAD_BITS, NIC_RATE_GBPS
from repro.store.client import JournalEntry, StateRef, StoreClient
from repro.store.protocol import DeleteRequest
from repro.store.spec import CacheStrategy
from repro.traffic.packet import Packet


class ShadowState(StateAPI):
    """Speculative, local-only :class:`StateAPI` over a :class:`StoreClient`.

    Reads come from the client's caches (overlaid with this packet's own
    speculative writes); updates apply the registry function to the shadow
    copy and append a *resolved* entry to the journal. Nothing touches the
    client — its caches, stats, WAL, the bit vector or the network — until
    the executor hands the journal to :meth:`StoreClient.commit`, and it
    only does that after the whole body returned.

    Every method is a generator that returns at once or raises
    :class:`NotFast`; none ever yields, which is what lets
    :func:`run_ahead` finish a body with a single ``send``.
    """

    __slots__ = ("client", "values", "journal", "cached_reads")

    def __init__(self, client: StoreClient):
        self.client = client
        self.values: Dict[str, Any] = {}
        self.journal: List[JournalEntry] = []
        self.cached_reads = 0  # client-cache hits, counted at commit

    def _resolve(self, obj_name: str, flow_key: Optional[Tuple]) -> Tuple[StateRef, str]:
        ref = self.client._refs.get(obj_name)
        if ref is None:
            # Undeclared: decline rather than error — the general path
            # runs the same body and raises there.
            raise NotFast(obj_name)
        return ref, self.client._key(obj_name, flow_key)

    # -- StateAPI -------------------------------------------------------

    def read(self, obj_name: str, flow_key: Optional[Tuple]) -> Generator:
        client = self.client
        ref, storage_key = self._resolve(obj_name, flow_key)
        if storage_key in self.values:
            return self.values[storage_key]
        if client._caches_writes(ref):
            cache = client._cache
        elif ref.strategy is CacheStrategy.READ_HEAVY_CACHE:
            cache = client._readheavy_cache
        else:
            # NON_BLOCKING / non-exclusive SPLIT_AWARE / caching off: the
            # general path read-throughs to the store — never local.
            raise NotFast(storage_key)
        if storage_key not in cache:
            raise NotFast(storage_key)  # cold: the general path seeds it
        self.cached_reads += 1
        return cache[storage_key]
        yield  # pragma: no cover - generator protocol

    def update(
        self,
        obj_name: str,
        flow_key: Optional[Tuple],
        op: str,
        *args: Any,
        need_result: bool = False,
    ) -> Generator:
        client = self.client
        ref, storage_key = self._resolve(obj_name, flow_key)
        if client._caches_writes(ref):
            if storage_key in self.values:
                current = self.values[storage_key]
            elif storage_key in client._cache:
                current = client._cache[storage_key]
            elif op in StoreClient._OVERWRITE_OPS:
                # overwrite ops need no current state — the general path
                # applies them on a cold cache too
                current = ref.spec.initial_value
            else:
                raise NotFast(storage_key)
            new_value, return_value = client.registry.apply(op, current, args)
            self.values[storage_key] = new_value
            self.journal.append((ref, flow_key, storage_key, op, args, new_value, True))
            return return_value
        strategy = ref.strategy
        if strategy is CacheStrategy.NON_BLOCKING or strategy is None:
            if need_result or client.wait_for_acks:
                raise NotFast(storage_key)  # a store round-trip is required
            self.journal.append((ref, flow_key, storage_key, op, args, None, False))
            return None
        # READ_HEAVY updates and non-exclusive SPLIT_AWARE updates run
        # blocking at the store by design.
        raise NotFast(storage_key)
        yield  # pragma: no cover - generator protocol

    def nondet(self, purpose: str, kind: str = "random") -> Generator:
        # the value is drawn (and logged for replay) at the store
        raise NotFast(purpose)
        yield  # pragma: no cover - generator protocol


def run_ahead(
    nf: NetworkFunction, packet: Packet, shadow: ShadowState
) -> Optional[List[Output]]:
    """Run ``nf.process`` to completion without the engine; None declines.

    Against a :class:`ShadowState` every ``yield from state...`` returns at
    once, so one ``send`` either finishes the body (its return value is
    the outputs) or surfaces the reason it cannot finish here: a state
    access raised :class:`NotFast`, or the body yielded something of its
    own for the engine to wait on. Either way the caller drops the shadow
    and the general path runs the same body from the top.
    """
    body = nf.process(packet, shadow)
    try:
        body.send(None)
    except StopIteration as stop:
        return stop.value or []
    except NotFast:
        return None
    body.close()
    return None


class FastPathExecutor:
    """The per-instance fast loop plus the fused-dispatch walk."""

    def __init__(self, instance, batch_size: int):
        self.instance = instance
        self.batch_size = max(1, batch_size)
        self.client: StoreClient = instance.client
        self.stats_fast = 0
        self.stats_fallback = 0
        self.stats_fused_in = 0

    # -- eligibility ----------------------------------------------------

    def eligible(self, packet: Packet) -> bool:
        """Cheap pre-checks before attempting the run-ahead."""
        instance = self.instance
        return (
            packet.control is None
            and not packet.mark_first
            and not packet.mark_last
            and not packet.replayed
            and not packet.replay_end
            and packet.replay_target is None
            and not instance._pending_moves
            and not instance._buffering
        )

    # -- execution ------------------------------------------------------

    def execute(self, packet: Packet) -> Optional[List[Output]]:
        """Run the NF's body ahead; commit and return outputs, or None.

        A decline leaves nothing behind: the shadow is dropped before
        anything reached the client or the instance.
        """
        instance = self.instance
        shadow = ShadowState(self.client)
        outputs = run_ahead(instance.nf, packet, shadow)
        if outputs is None:
            self.stats_fallback += 1
            return None
        instance._note_clock(packet)
        self.client.commit(packet, shadow.journal, shadow.cached_reads)
        instance._account(packet, outputs, instance.proc_time_us)
        self.stats_fast += 1
        return outputs

    # -- the batched worker loop ----------------------------------------

    def worker_loop(self, queue) -> Generator:
        """Batched replacement for ``NFInstance._worker_loop`` (one per
        worker queue; sharding and per-shard FIFO order are unchanged).

        One generator resume drains up to ``batch_size`` queued packets.
        Eligible ones run the NF's body ahead (synchronously, with fused
        downstream dispatch); everything else — barriers, move markers,
        replayed traffic, declined packets — goes through the unmodified
        general machinery inline, so it cannot be overtaken.
        Per-packet service time for fast packets is charged as one lump
        timeout at the end of the batch: one timer event instead of one
        per packet, which is where the engine-event win comes from.
        """
        instance = self.instance
        sim = instance.sim
        while instance._alive:
            first = yield queue.get()
            batch = [first]
            while len(batch) < self.batch_size:
                item = queue.try_get()
                if item is None:
                    break
                batch.append(item)
            self.client.batch_begin()
            touched = [self.client]
            deletes: List[Tuple[str, int, int, int]] = []
            debt = 0.0
            for packet in batch:
                outputs = self.execute(packet) if self.eligible(packet) else None
                if outputs is None:
                    # General path, inline: blocking state access may stall
                    # this queue — required, later packets of the shard
                    # must not overtake.
                    yield from instance._serve(packet)
                else:
                    debt += instance.proc_time_us
                    debt += yield from self._emit_fused(
                        packet, outputs, touched, deletes
                    )
                    instance._uncount(packet)
                if not instance._alive:
                    return
            for client in touched:
                client.batch_flush()
            if deletes:
                self._flush_deletes(deletes)
            if debt > 0.0:
                yield sim.timeout(debt)

    # -- fused dispatch -------------------------------------------------

    def _flush_deletes(self, deletes: List[Tuple[str, int, int, int]]) -> None:
        """Send the batch's last-NF delete reports, one message per root."""
        by_root: Dict[str, List[Tuple[int, int, int]]] = {}
        for root_name, clock, vector, generation in deletes:
            by_root.setdefault(root_name, []).append((clock, vector, generation))
        for root_name, entries in by_root.items():
            self.client.endpoint.send(root_name, DeleteRequest(*zip(*entries)))

    def _emit_fused(
        self,
        packet: Packet,
        outputs: List[Output],
        touched: List[StoreClient],
        deletes: List[Tuple[str, int, int, int]],
    ) -> Generator:
        """Walk the packet through fused downstream NFs, then emit.

        Returns the simulated time owed for the fused hops (link + wire +
        downstream processing) — charged by the caller as part of the
        batch's lump timeout. Downstream clients whose flush batch this
        walk opens are appended to ``touched``; the caller flushes them
        with the batch, so the whole fused run's state flushes coalesce.
        """
        runtime = self.instance.runtime
        current = self.instance
        debt = 0.0
        wire_rate = NIC_RATE_GBPS * 1000.0  # bits/µs
        while len(outputs) == 1 and outputs[0].packet is packet:
            dst_vertex = runtime.fusion_successor(current.vertex_name, outputs[0].edge)
            if dst_vertex is None:
                break
            target = runtime.fast_target(dst_vertex, packet)
            if target is None:
                break
            dup_filter = target.filter
            if dup_filter.enabled and packet.clock and packet.clock in dup_filter._seen:
                # same suppression (and root accounting) _deliver applies
                dup_filter.suppressed += 1
                runtime.duplicates_suppressed += 1
                runtime.root_for(packet.clock).report_done(
                    packet.clock, 0, packet.generation
                )
                return debt
            executor = target._fastpath
            packet.queued_at = self.instance.sim.now
            if not executor.eligible(packet):
                break
            if executor.client._batch is None:
                executor.client.batch_begin()
                touched.append(executor.client)
            fused = executor.execute(packet)
            if fused is None:
                break
            # the fused ingress still records the clock, so a later replay
            # of this packet is recognised as a duplicate at this instance
            dup_filter.admit(packet)
            executor.stats_fused_in += 1
            debt += (
                HOP_LINK_US
                + (packet.size_bits + NIC_OVERHEAD_BITS) / wire_rate
                + target.proc_time_us
            )
            current = target
            outputs = fused
        # The emit runs on the last fused-into instance's behalf and may park
        # (backpressure, a pause gate): that instance is not finished with
        # the packet until it returns — or this worker is killed.
        current.inbound += 1
        try:
            yield from runtime.emit(current, packet, outputs, delete_sink=deletes)
        finally:
            current._release()
        return debt


def install_fastpath(instance, batch_size: int) -> Optional[FastPathExecutor]:
    """Attach a fast-path executor to an instance whose NF opted in.

    Called by :class:`~repro.core.instance.NFInstance` at construction;
    returns None (instance stays fully general) when the NF is not
    ``speculative``.
    """
    if not instance.nf.speculative:
        return None
    return FastPathExecutor(instance, batch_size)
