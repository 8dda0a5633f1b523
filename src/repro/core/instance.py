"""The NF instance runtime (§4.2, §6).

One :class:`NFInstance` models a multi-threaded NF process: the receive
side shards arriving packets across worker threads by flow (per-flow order
is preserved; cross-flow updates may interleave, exactly as in the C++
prototype), holding them in the framework-managed input queue only while
a full worker queue pushes back. Each worker charges the NF's
per-packet CPU cost, runs the vertex program (whose state accesses go
through the store client and consume simulated RTTs per Table 1), records
the per-packet processing time, and hands outputs back to the runtime.

The instance also implements the receive-side halves of the correctness
protocols:

* **handover (new instance)** — on a ``mark_first`` packet it checks state
  ownership and buffers the moved flow until the old instance releases it
  (Figure 4 steps 3–7);
* **handover (old instance)** — a ``mark_last`` control marker is treated
  as a barrier across workers; once every already-queued packet has
  drained, cached state is flushed and ownership released (step 5);
* **replay buffering** — a freshly created clone/failover instance
  processes replayed traffic first and buffers live traffic until the
  packet marked ``replay_end`` has been processed (§5.3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.analysis import runtime as _sanitize
from repro.core import handover
from repro.core.duplicates import DuplicateFilter
from repro.core.nf_api import NetworkFunction, StateAPI
from repro.core.splitter import MoveMarker
from repro.simnet.engine import Channel, Event, Process, Simulator
from repro.simnet.monitor import LatencyRecorder, ThroughputMeter
from repro.simnet.nic import Nic
from repro.simnet.rpc import RpcRequest
from repro.store.client import StoreClient
from repro.traffic.packet import Packet, scope_fields
from repro.util import Memo, stable_hash

# Overload policies for bounded instance queues (§8). BLOCK parks the
# producer (hop-by-hop backpressure through the NIC ring), DROP tail-drops
# with ledger accounting, SHED evicts the lowest-priority queued packet
# first so high-priority flows survive a burst.
POLICY_BLOCK = "block"
POLICY_DROP = "drop"
POLICY_SHED = "shed"
OVERLOAD_POLICIES = (POLICY_BLOCK, POLICY_DROP, POLICY_SHED)

# Drop-ledger causes (folded into Network.drops via ChainRuntime.note_shed)
SHED_CAUSE_QUEUE = "overload_queue"
SHED_CAUSE_NIC = "nic_ring"


class CHCStateAPI(StateAPI):
    """StateAPI bound to one packet's context.

    One is created per packet being processed: worker threads handle
    packets concurrently, and clock/sequence context must never leak
    between them.
    """

    def __init__(self, client: StoreClient, ctx):
        self.client = client
        self.ctx = ctx

    def read(self, obj_name: str, flow_key: Optional[Tuple]) -> Generator:
        return (yield from self.client.read(obj_name, flow_key, ctx=self.ctx))

    def update(
        self,
        obj_name: str,
        flow_key: Optional[Tuple],
        op: str,
        *args: Any,
        need_result: bool = False,
    ) -> Generator:
        return (
            yield from self.client.update(
                obj_name, flow_key, op, *args, need_result=need_result, ctx=self.ctx
            )
        )

    def nondet(self, purpose: str, kind: str = "random") -> Generator:
        return (yield from self.client.nondet(purpose, kind, ctx=self.ctx))


@dataclass
class InstanceStats:
    processed: int = 0
    duplicates_seen: int = 0
    dropped: int = 0
    control_markers: int = 0
    buffered: int = 0
    shed: int = 0


class NFInstance:
    """One running instance of a vertex. See module docstring."""

    def __init__(
        self,
        sim: Simulator,
        runtime,  # ChainRuntime (duck-typed to avoid an import cycle)
        vertex_name: str,
        instance_id: str,
        nf: NetworkFunction,
        client: StoreClient,
        n_workers: int = 8,
        proc_time_us: float = 2.0,
        extra_delay: Optional[Callable[[], float]] = None,
        start_buffering: bool = False,
        queue_capacity: Optional[int] = None,
        overload_policy: str = POLICY_BLOCK,
        fastpath_enabled: bool = False,
        fastpath_batch: int = 16,
    ):
        if overload_policy not in OVERLOAD_POLICIES:
            raise ValueError(f"unknown overload policy {overload_policy!r}")
        self.sim = sim
        self.runtime = runtime
        self.vertex_name = vertex_name
        self.instance_id = instance_id
        self.nf = nf
        self.client = client
        self.n_workers = n_workers
        # five-tuple -> worker shard (both directions of a flow share one)
        self._shard_memo = Memo(
            lambda five_tuple: stable_hash(five_tuple.canonical().key()) % n_workers
        )
        self.proc_time_us = proc_time_us
        self.extra_delay = extra_delay
        self.queue_capacity = queue_capacity
        self.overload_policy = overload_policy
        # BLOCK bounds the input channel itself (the NIC parks on its space
        # event) and each worker queue (the receive side parks, filling the
        # input). DROP/SHED leave channels unbounded and enforce the bound
        # on total depth at enqueue, where the shed decision is made.
        input_capacity = queue_capacity if overload_policy == POLICY_BLOCK else None
        self.worker_capacity = (
            None if input_capacity is None else max(1, queue_capacity // n_workers)
        )

        self.input = Channel(
            sim, name=f"{instance_id}-input", capacity=input_capacity
        )
        # The NIC feeding ``enqueue`` and the §5.3 duplicate filter before
        # it: built by ChainRuntime.add_instance, the NIC failed by _leave.
        self.nic: Nic
        self.filter: DuplicateFilter
        # recorder: pure per-packet processing time (Figure 8's metric);
        # sojourn: arrival-at-NF to completion, queueing included (what
        # Figures 12/13 plot — stalls and recovery show up as queue wait).
        self.recorder = LatencyRecorder(name=instance_id)
        self.sojourn = LatencyRecorder(name=f"{instance_id}-sojourn")
        self.throughput = ThroughputMeter(name=instance_id)
        self.stats = InstanceStats()

        self._alive = True
        # BLOCK: the packet the receive side is parked with, waiting for room
        # in its (full) worker queue; arrivals meanwhile wait in ``input``.
        self._rx_held: Optional[Packet] = None
        self._rx_parked_in: Any = None  # sanitizer holding the rx->wkr edge
        self._buffering = start_buffering
        self._live_buffer: List[Packet] = []
        self._replay_seen = 0           # replayed packets this target processed
        self._replay_release: Optional[int] = None  # generation size, from marker
        self._pending_moves: Dict[int, MoveMarker] = {}  # inbound, incomplete
        self._seen_clocks: Set[int] = set()
        self._barrier_counts: Dict[int, int] = {}

        # Packet copies dispatched to this instance and not yet finished
        # with it: counted at _deliver time (so the link, the wire and the
        # ring are inside the count), uncounted once emit returned or the
        # copy was shed. ``inbound`` is what handover.quiesce asks before a
        # retirement; the per-flow split is the fast-path latch (§6), kept
        # only where an executor reads it: fused dispatch into this instance
        # requires the flow's count to be zero, so a fused packet can never
        # overtake a general-path one.
        self.inbound = 0
        self._quiescent: Optional[Event] = None
        self._inflight_flows: Dict[Tuple, int] = {}
        self._fastpath = None
        if fastpath_enabled and extra_delay is None:
            from repro.core.fastpath import install_fastpath

            self._fastpath = install_fastpath(self, fastpath_batch)

        self._worker_queues = [
            Channel(sim, name=f"{instance_id}-w{i}", capacity=self.worker_capacity)
            for i in range(n_workers)
        ]
        worker_body = (
            self._fastpath.worker_loop if self._fastpath is not None
            else self._worker_loop
        )
        self._processes: List[Process] = [
            sim.process(worker_body(q), name=f"{instance_id}-w{i}")
            for i, q in enumerate(self._worker_queues)
        ]
        client.endpoint.on_request = self._on_query

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def queue_depth(self) -> int:
        return len(self.input) + sum(len(q) for q in self._worker_queues)

    @property
    def queue_depth_peak(self) -> int:
        """Highest depth any of this instance's queues ever reached."""
        peak = self.input.depth_peak
        for queue in self._worker_queues:
            if queue.depth_peak > peak:
                peak = queue.depth_peak
        return peak

    def fail(self) -> None:
        """Fail-stop: internal state, queued and in-flight packets vanish."""
        if not self._alive:
            return
        self._alive = False
        for process in self._processes:
            process.kill()
        self._rx_held = None
        self._rx_unpark()
        self.client.fail()
        self.input.clear()
        for queue in self._worker_queues:
            queue.clear()
        self._live_buffer.clear()
        self._pending_moves.clear()
        self._inflight_flows.clear()
        self.inbound = 0
        if self._quiescent is not None:
            self._settled()

    def stop_buffering(self) -> None:
        """Replay finished (or was empty): release buffered live traffic."""
        if not self._buffering:
            return
        self._buffering = False
        pending, self._live_buffer = self._live_buffer, []
        for packet in pending:
            self._dispatch(packet)

    def _maybe_stop_buffering(self) -> None:
        """Release once the replay-end marker AND the full generation landed."""
        if self._replay_release is not None and self._replay_seen >= self._replay_release:
            self.stop_buffering()

    def expect_replayed(self, total: int) -> None:
        """The replay sent ``total`` copies here and none carried the
        ``replay_end`` marker: release once all of them were processed, as
        the marker would have (at once when ``total`` is 0)."""
        self._replay_release = total
        self._maybe_stop_buffering()

    def replay_copy_lost(self) -> None:
        """A replayed copy bound for this target was shed on the way: it
        counts towards the generation like one that arrived."""
        self._replay_seen += 1
        self._maybe_stop_buffering()

    # ------------------------------------------------------------------
    # in-flight accounting: the retirement gate and the fusion latch (§6)
    # ------------------------------------------------------------------

    def _count_inflight(self, packet: Packet) -> None:
        """One more packet copy is bound for this instance.

        Called by the runtime when a copy is dispatched here (before the
        NIC/link delay, so the in-flight window is covered). The per-flow
        half is skipped without an executor — it only keeps fused dispatch
        from overtaking general-path packets of the same flow, and
        ``fast_target`` never fuses into an instance that has none.
        """
        if packet.mark_last:
            return
        self.inbound += 1
        if self._fastpath is not None:
            key = packet.five_tuple.canonical().key()
            self._inflight_flows[key] = self._inflight_flows.get(key, 0) + 1

    def _uncount(self, packet: Packet) -> None:
        """The packet's journey through this instance ended (processed,
        shed, evicted, or ring-dropped)."""
        if packet.mark_last:
            return
        self._release()
        if self._fastpath is None:
            return
        key = packet.five_tuple.canonical().key()
        count = self._inflight_flows.get(key, 0)
        if count <= 1:
            self._inflight_flows.pop(key, None)
        else:
            self._inflight_flows[key] = count - 1

    def _release(self) -> None:
        """One counted copy is finished with this instance. Floored at
        zero: packets injected directly in tests were never counted."""
        if self.inbound > 0:
            self.inbound -= 1
            if not self.inbound and self._quiescent is not None:
                self._settled()

    def quiescent(self) -> Event:
        """Fires when ``inbound`` next reaches zero (or the instance dies);
        ask while it is non-zero. Waiters resume later in that instant, so
        they re-read the count."""
        if self._quiescent is None:
            self._quiescent = self.sim.event(name=f"quiescent({self.instance_id})")
        return self._quiescent

    def _settled(self) -> None:
        event, self._quiescent = self._quiescent, None
        event.succeed(None)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        """Admit ``packet`` and route it to its worker queue.

        Returns ``True`` when the packet was taken (admitted, or shed with
        accounting — either way the sender is done with it) and ``False``
        only under the BLOCK policy when the receive side is parked and the
        bounded input behind it is full: the delivering NIC then parks on
        ``input.space_event()`` and retries, which is what propagates
        backpressure upstream.
        """
        if not self._alive:
            # Fail-stop loses packets in flight towards the instance (replay
            # recovers them). Taking them keeps the NIC serving, so a crash
            # under BLOCK cannot wedge the upstream ring.
            return True
        packet.queued_at = self.sim.now
        if self.queue_capacity is None:
            self._route(packet)
            return True
        # Control-plane and recovery traffic is never refused or shed:
        # losing a barrier/replay marker wedges handover or replay.
        forced = (
            packet.control is not None
            or packet.mark_first
            or packet.replayed
            or packet.replay_end
        )
        if self._rx_held is not None:
            # BLOCK, receive side parked: wait in line behind its packet
            if forced:
                self.input.put_forced(packet)
                return True
            return self.input.put(packet)
        policy = self.overload_policy
        if forced or policy == POLICY_BLOCK or self.queue_depth < self.queue_capacity:
            self._route(packet)
            return True
        victim = packet
        if policy == POLICY_SHED:
            evicted = self._evict_lower_priority(packet)
            if evicted is not None:
                victim = evicted
                self._route(packet)
        self.stats.shed += 1
        self._uncount(victim)
        self.runtime.note_shed(self, victim, SHED_CAUSE_QUEUE)
        return True

    def _evict_lower_priority(self, incoming: Packet) -> Optional[Packet]:
        """Find and remove the lowest-priority queued data packet that is
        strictly lower priority than ``incoming``; None if there is none."""
        best_queue = None
        best_index = -1
        best_priority = incoming.priority
        for queue in (self.input, *self._worker_queues):
            for index, queued in enumerate(queue._items):
                if (
                    queued.control is not None
                    or queued.mark_first
                    or queued.replayed
                    or queued.replay_end
                ):
                    continue
                if queued.priority < best_priority:
                    best_priority = queued.priority
                    best_queue, best_index = queue, index
        if best_queue is None:
            return None
        victim = best_queue._items[best_index]
        del best_queue._items[best_index]
        return victim

    def _route(self, packet: Packet) -> None:
        """Receive side: hand one admitted packet to the worker(s)."""
        if packet.control is not None and packet.mark_last:
            # Handover barrier: every worker must pass it (§5.1 step 5
            # happens only after all queued packets of the flow drain).
            # Forced put: the barrier must reach every worker even when
            # its queue is at capacity.
            self.stats.control_markers += 1
            for queue in self._worker_queues:
                queue.put_forced(packet)
            return
        if self._buffering and not packet.replayed:
            self._live_buffer.append(packet)
            self.stats.buffered += 1
            return
        queue = self._worker_queues[self._shard_memo[packet.five_tuple]]
        if not queue.put(packet):
            # BLOCK policy: park with the packet until the worker drains
            # one; arrivals meanwhile accumulate in the bounded input, whose
            # fullness pushes back on the delivering NIC.
            self._rx_held = packet
            suite = self._rx_parked_in = _sanitize.ACTIVE
            if suite is not None:
                suite.wait_edge(
                    self.sim, f"rx:{self.instance_id}", f"wkr:{self.instance_id}"
                )
            queue.space_event().add_callback(self._rx_resume)

    def _rx_resume(self, _event) -> None:
        """The full worker queue drained one: place the held packet, then
        everything that queued up in ``input`` behind it, in order."""
        self._rx_unpark()
        if not self._alive:
            return
        packet, self._rx_held = self._rx_held, None
        self._route(packet)
        while self._rx_held is None and len(self.input):
            self._route(self.input.try_get())

    def _rx_unpark(self) -> None:
        suite, self._rx_parked_in = self._rx_parked_in, None
        if suite is not None:
            suite.release_edge(f"rx:{self.instance_id}", f"wkr:{self.instance_id}")

    def _dispatch(self, packet: Packet) -> None:
        shard = self._shard_memo[packet.five_tuple]
        self._worker_queues[shard].put_forced(packet)

    def _worker_loop(self, queue: Channel) -> Generator:
        while self._alive:
            packet: Packet = yield queue.get()
            yield from self._serve(packet)

    def _inbound_move(self, packet: Packet) -> Optional[MoveMarker]:
        """The incomplete inbound move ``packet`` belongs to, if any."""
        if packet.mark_first and isinstance(packet.control, MoveMarker):
            marker = packet.control
            # Consume the marker HERE: an NF that forwards the same
            # packet object would otherwise leak it downstream, where
            # the next vertex's worker blocks forever on a handover
            # that isn't for its vertex.
            packet.mark_first = False
            packet.control = None
            if marker.new_instance == self.instance_id:
                return marker
            # not our move (e.g. a straggler-clone copy): ordinary
            # traffic as far as this instance is concerned
        if not self._pending_moves:
            return None
        for marker in self._pending_moves.values():
            if scope_fields(packet.five_tuple.canonical(), marker.fields) in marker.scope_keys:
                return marker
        return None

    def _on_query(self, request: RpcRequest) -> None:
        """Serve framework queries addressed to this instance.

        A recovering root queries downstream instances for the current flow
        allocation (§5.4 "Root": "retrieves how to partition traffic by
        querying downstream instances' flow allocation").
        """
        if request.payload == "allocation":
            allocation = self.runtime.splitter(self.vertex_name).allocation()
            self.client.endpoint.respond(request, allocation)
        else:
            self.client.endpoint.respond(
                request, RuntimeError("unknown instance query"), ok=False
            )

    # ------------------------------------------------------------------
    # packet processing
    # ------------------------------------------------------------------

    def _serve(self, packet: Packet) -> Generator:
        """One dequeued item through the general path — what a worker does
        between two ``get()``s, and what the batched fast loop falls back
        to for whatever it cannot run ahead."""
        if packet.control is not None and packet.mark_last:
            yield from self._on_last_marker(packet.control)
            return
        marker = self._inbound_move(packet)
        if marker is not None:
            yield from self._ensure_moved_in(marker)
        start = self.sim.now
        self._note_clock(packet)
        api = CHCStateAPI(self.client, self.client.make_context(packet))
        delay = self.proc_time_us
        if self.extra_delay is not None:
            delay += self.extra_delay()
        yield self.sim.timeout(delay)
        outputs = yield from self.nf.process(packet, api)
        if not self._alive:
            return
        self._account(packet, outputs, self.sim.now - start)
        if packet.replay_target == self.instance_id:
            # §5.3: "The clone's ID is cleared once it processed the packet"
            # — downstream of the target the copy is ordinary traffic again,
            # so queue-level duplicate suppression applies to it.
            packet.replay_target = None
            packet.replayed = False
            self._replay_seen += 1
            self._maybe_stop_buffering()
        was_replay_end = packet.replay_end
        replay_total = packet.replay_total
        yield from self.runtime.emit(self, packet, outputs or [])
        # Release the flow latch only after the emit completed: a fused
        # packet must not slip past this one while emit is parked on
        # downstream backpressure.
        self._uncount(packet)
        if was_replay_end:
            # The marker can overtake other replayed packets when the
            # upstream path fans across parallel instances (or one of them
            # is mid-handover): release only once the whole generation has
            # been processed, else a buffered live packet beats a replayed
            # same-flow predecessor that is still in flight.
            self._replay_release = replay_total or self._replay_seen
            self._maybe_stop_buffering()

    def _note_clock(self, packet: Packet) -> None:
        """Count a clock this instance already served (a replayed or cloned
        copy); the runtime forgets clocks as the root deletes them."""
        if packet.clock in self._seen_clocks:
            self.stats.duplicates_seen += 1
        elif packet.clock:
            self._seen_clocks.add(packet.clock)

    def _account(self, packet: Packet, outputs, service_us: float) -> None:
        """Per-packet records of a completed NF visit, on either path."""
        now = self.sim.now
        self.recorder.record(service_us, timestamp=now)
        if packet.queued_at:
            self.sojourn.record(now - packet.queued_at, timestamp=now)
        self.throughput.add(packet.size_bits, now)
        self.stats.processed += 1
        if not outputs:
            self.stats.dropped += 1

    # ------------------------------------------------------------------
    # handover protocol (Figure 4)
    # ------------------------------------------------------------------

    def _on_last_marker(self, marker: MoveMarker) -> Generator:
        """Old-instance side: barrier across workers, then flush & release."""
        count = self._barrier_counts.get(marker.marker_id, 0) + 1
        self._barrier_counts[marker.marker_id] = count
        if count < self.n_workers:
            return
        del self._barrier_counts[marker.marker_id]
        if marker.old_instance != self.instance_id:
            return
        yield from self._flush_and_release(marker)

    def _flush_and_release(self, marker: MoveMarker) -> Generator:
        """Figure 4 step 5: flush cached state, disassociate ownership.

        Only *operations* are flushed (they were already streamed to the
        store non-blocking; the barrier just waits for their ACKs) — no
        state is serialised or copied, which is why CHC's move is ~35X
        faster than OpenNF's (§7.3 R2). The bulk ownership release is
        :func:`repro.core.handover.release`.
        """
        yield self.client.ack_barrier()
        yield from handover.release(self.runtime, self, marker)

    def _ensure_moved_in(self, marker: MoveMarker) -> Generator:
        """New-instance side: Figure 4 steps 3-4, 6-7.

        The moved flow's worker blocks until ownership lands: checking the
        store / registering the callback costs one RTT; the datastore's
        handover notification releases the wait. Blocking the worker (all
        of a flow's packets shard to one worker) *is* the buffering of
        step 4 — packets queue behind this one in FIFO order, so updates
        happen in upstream arrival order (step 8's guarantee). A move that
        has already completed costs nothing, and its packets stop being
        diverted here even while a sibling worker still waits out its RTT.
        """
        if not handover.completed(self.runtime, self.vertex_name, marker):
            self._pending_moves[marker.move_id] = marker
            yield from handover.await_release(self.runtime, self, marker)
        self._pending_moves.pop(marker.move_id, None)

    def __repr__(self) -> str:
        return f"<NFInstance {self.instance_id} of {self.vertex_name}>"
