"""The root: chain entry, logical clocks, packet log, delete protocol (§5).

The root (a special splitter at the head of the physical DAG):

* stamps every input packet with a unique logical clock;
* logs every packet still being processed somewhere in the chain, and the
  downstream instance it was forwarded to;
* persists its clock to the datastore every ``persist_every`` packets
  (§7.2 "Clocks": per-packet persistence costs one RTT; batching reduces
  the amortised overhead, and after a crash the new root skips the whole
  unpersisted range so clock uniqueness survives);
* accumulates the store's per-packet **commit signals** and deletes a log
  entry only when the XOR of committed (vertex || object) tags equals the
  XOR reported by the chain's delete requests — the Figure 6 protocol that
  keeps a packet replayable while any of its non-blocking updates is
  uncommitted;
* replays logged packets through the whole chain for failover and
  straggler cloning (§5.3, §5.4), tagging them with the target instance.

Copy accounting: an entry's ``outstanding`` counts in-flight copies of the
packet (branching at mirror edges or clone replication increments it; a
drop, duplicate-suppression absorption, or sink completion decrements it
and reports that copy's bit vector). Replay starts a new ``generation``;
reports from a previous generation's copies are ignored, so the replay
pass fully replaces the original pass in the bookkeeping.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Generator, Iterable, List, Optional, Tuple

from repro.analysis import runtime as _sanitize
from repro.core.clock import LogicalClock
from repro.simnet.engine import Channel, Simulator
from repro.simnet.monitor import LatencyRecorder
from repro.simnet.network import Envelope, Network
from repro.simnet.rpc import RpcEndpoint, RpcRequest, RpcTimeout
from repro.store.keys import root_clock_key, root_log_key
from repro.store.operations import DELETE_OP
from repro.store.protocol import CommitSignal, DeleteRequest, OpRequest, PruneRequest
from repro.traffic.packet import Packet

# Log entries at which the root stops admitting input: some NF cannot keep
# up, so drop at the root rather than bloat the log (§5).
LOG_THRESHOLD = 500_000


class LogEntry:
    """Root-side record of one in-flight packet.

    Copy accounting is **per generation** (generation 0 is the original
    pass; each replay starts a new one). The entry is deletable as soon as
    *any* generation has all copies accounted for and its reported XOR
    matches the committed XOR — e.g. the original pass may complete after
    a replay was launched (its missing commit regenerated by the replay),
    or the replay pass may complete when the original died.

    ``outstanding`` and ``reported`` are rows indexed by generation:
    ``array('q')``, because copy counts and 32-bit tags fit and neither row
    is then an object the collector walks.
    """

    __slots__ = (
        "packet", "dst_instance", "logged_at", "generation", "committed_vector",
        "outstanding", "reported", "reports", "restored", "vector_unreliable",
    )

    def __init__(
        self,
        packet: Packet,
        dst_instance: str,
        logged_at: float,
        generation: int = 0,
        committed_vector: int = 0,
        outstanding: Iterable[int] = (1,),
        reported: Iterable[int] = (0,),
        reports: int = 0,
        restored: bool = False,
        vector_unreliable: bool = False,
    ):
        self.packet = packet
        self.dst_instance = dst_instance
        self.logged_at = logged_at
        self.generation = generation
        self.committed_vector = committed_vector
        self.outstanding = array("q", outstanding)
        self.reported = array("q", reported)
        self.reports = reports
        # Entry restored from the store after a root failover: commit signals
        # from before the crash are gone, so the XOR check cannot be satisfied
        # for already-committed updates. A completed *replay* generation is
        # accepted instead — safe because replayed updates are retransmitted,
        # idempotent (dedup by (key, clock, seq)) ops.
        self.restored = restored
        # Entry in flight across a datastore-instance recovery: the dead
        # store's already-sent commit signals are re-sent by the recovery's
        # WAL re-execution, so XOR parity is unreliable. The rebuilt state
        # provably reflects every logged operation (Theorems B.5.1–B.5.3), so
        # such an entry may delete on copy-count alone.
        self.vector_unreliable = vector_unreliable

    @property
    def complete(self) -> bool:
        # asked on every commit signal and delete report, which mostly find
        # copies still out in every generation: one C-level scan says so
        if 0 not in self.outstanding:
            return False
        for gen, count in enumerate(self.outstanding):
            if count == 0 and (
                self.reported[gen] == self.committed_vector
                or (self.restored and gen > 0)
                or self.vector_unreliable
            ):
                return True
        return False


@dataclass
class RootStats:
    injected: int = 0
    deleted: int = 0
    dropped_at_threshold: int = 0
    replayed: int = 0
    commit_signals: int = 0


class Root:
    """See module docstring."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        forward: Callable[[Packet], None],
        forward_wait: Optional[Callable[[Packet], Generator]] = None,
        store_endpoint: Optional[str] = None,
        root_id: int = 0,
        persist_every: int = 100,
        log_in_store: bool = False,
        local_log_cost_us: float = 1.0,
        log_threshold: int = LOG_THRESHOLD,
        prune_grace_us: float = 10_000.0,
        store_endpoints_for_prune: Optional[List[str]] = None,
        clock: Optional[LogicalClock] = None,
        input_channel: Optional[Channel] = None,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.forward = forward
        self.forward_wait = forward_wait
        self.store_endpoint = store_endpoint
        self.root_id = root_id
        self.persist_every = persist_every
        self.log_in_store = log_in_store
        self.local_log_cost_us = local_log_cost_us
        self.log_threshold = log_threshold
        self.prune_grace_us = prune_grace_us
        self.store_endpoints_for_prune = store_endpoints_for_prune or (
            [store_endpoint] if store_endpoint else []
        )
        # prune aggregation: (due_at, clock) FIFO + a single armed timer,
        # so N deletes cost one flush timer and one message per store per
        # grace window instead of one each
        self._prune_queue: Deque[Tuple[float, int]] = deque()
        self._prune_timer_armed = False

        self.clock = clock or LogicalClock(root_id=root_id)
        self.endpoint = RpcEndpoint(
            sim, network, name,
            on_request=self._on_request, on_message=self._on_message,
        )
        # A failover root adopts its predecessor's input channel, so packets
        # buffered while the root was down are processed first (§5.4).
        self.input = input_channel if input_channel is not None else Channel(
            sim, name=f"{name}-input"
        )
        self.log: Dict[int, LogEntry] = {}
        self.stats = RootStats()
        # per-packet time spent inside the root (clock persist + logging):
        # the §7.2 metadata-overhead metric
        self.inject_recorder = LatencyRecorder(name=f"{name}-inject")
        self.on_deleted: List[Callable[[int], None]] = []
        self._alive = True
        self._since_persist = 0

        self._inject_proc = sim.process(self._inject_loop(), name=f"{name}-inject")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    def fail(self) -> None:
        """Fail-stop. A locally-kept log dies with the root; a store-kept
        log survives (the §7.2 trade-off)."""
        if not self._alive:
            return
        self._alive = False
        self._inject_proc.kill()
        self.endpoint.fail()
        if not self.log_in_store:
            self.log.clear()

    # ------------------------------------------------------------------
    # injection path
    # ------------------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Entry point for input traffic (non-blocking enqueue)."""
        self.input.put(packet)

    def _inject_loop(self) -> Generator:
        while self._alive:
            packet: Packet = yield self.input.get()
            if len(self.log) >= self.log_threshold:
                # Back-pressure: some NF cannot keep up; drop at the root
                # rather than bloat the log (§5).
                self.stats.dropped_at_threshold += 1
                continue
            dequeued_at = self.sim.now
            packet.clock = self.clock.next()
            suite = _sanitize.ACTIVE
            if suite is not None:
                # Clocks must be strictly monotone per root id, including
                # across failover resume (a regression here resurrects
                # retired log entries and breaks duplicate suppression).
                suite.note_clock_issue(self.sim, self.root_id, packet.clock, self.name)
            packet.bitvector = 0
            packet.ingress_time = self.sim.now

            # Persist the clock to the store every n packets (§7.2). A dead
            # or recovering store must not wedge the root: time out and
            # carry on (the next persist catches up; recovery skips ahead
            # past the whole unpersisted window anyway).
            self._since_persist += 1
            if self.store_endpoint and self._since_persist >= self.persist_every:
                self._since_persist = 0
                try:
                    yield from self.endpoint.call(
                        self.store_endpoint,
                        OpRequest(
                            key=root_clock_key(self.root_id),
                            op="set",
                            args=(self.clock.last_issued_sequence,),
                            instance=self.name,
                            log_update=False,
                        ),
                        timeout_us=200.0,
                        max_retries=2,
                    )
                except RpcTimeout:
                    pass

            # Log the packet (and which instance it went to).
            entry = LogEntry(
                packet=packet.copy(),
                dst_instance="",
                logged_at=self.sim.now,
            )
            self.log[packet.clock] = entry
            if self.log_in_store and self.store_endpoint:
                # Store-kept log: the packet waits for the write (§7.2's
                # +34.2us mode, survives root+NF correlated failure).
                yield self.endpoint.call_event(
                    self.store_endpoint,
                    OpRequest(
                        key=root_log_key(self.root_id, packet.clock),
                        op="set",
                        args=(entry.packet,),
                        instance=self.name,
                        log_update=False,
                    ),
                )
                self._finish_inject(packet, dequeued_at)
            elif self.local_log_cost_us:
                # Local log: adds ~1us latency to the packet but is handled
                # by the logger pipeline — the root keeps stamping at line
                # rate (equal delays preserve order).
                self.sim.schedule(
                    self.local_log_cost_us, self._finish_inject, packet, dequeued_at
                )
            else:
                self._finish_inject(packet, dequeued_at)

    def _finish_inject(self, packet: Packet, dequeued_at: float) -> None:
        if not self._alive:
            return
        self.stats.injected += 1
        self.inject_recorder.record(self.sim.now - dequeued_at, timestamp=self.sim.now)
        self.forward(packet)

    def note_destination(self, clock: int, instance: str) -> None:
        """Record which downstream instance the packet was forwarded to."""
        entry = self.log.get(clock)
        if entry is not None and not entry.dst_instance:
            entry.dst_instance = instance

    # ------------------------------------------------------------------
    # copy accounting & deletion (Figure 6)
    # ------------------------------------------------------------------

    def add_outstanding(self, clock: int, delta: int, generation: int = 0) -> None:
        """A copy branched (mirror edge / clone replication): more copies
        are now in flight. Framework-internal bookkeeping (no message)."""
        entry = self.log.get(clock)
        if entry is None or generation >= len(entry.outstanding):
            return
        entry.outstanding[generation] += delta

    def report_done(self, clock: int, vector: int, generation: int = 0) -> None:
        """One copy's journey ended (sink, drop, or duplicate absorption)."""
        entry = self.log.get(clock)
        if entry is None or generation >= len(entry.outstanding):
            return
        entry.outstanding[generation] -= 1
        entry.reported[generation] ^= vector
        entry.reports += 1
        self._maybe_delete(clock, entry)

    def on_commit_signal(self, clock: int, vector_tag: int) -> None:
        """The store committed an update of packet ``clock`` (Figure 6
        step 2): fold its tag into the entry's committed XOR."""
        entry = self.log.get(clock)
        self.stats.commit_signals += 1
        if entry is None:
            return
        entry.committed_vector ^= vector_tag
        self._maybe_delete(clock, entry)

    def note_store_recovered(self) -> int:
        """A datastore instance was rebuilt from caches + WALs (§5.4).

        Commit-signal XOR parity for clocks in flight across the recovery
        is unreliable: signals the dead instance already sent may be
        re-sent by the recovery's WAL re-execution. The rebuilt state
        contains every logged operation of these packets (Theorems
        B.5.1–B.5.3), so current entries are marked deletable on
        copy-count alone. Returns how many entries were marked.
        """
        marked = 0
        for clock, entry in list(self.log.items()):
            if not entry.vector_unreliable:
                entry.vector_unreliable = True
                marked += 1
            self._maybe_delete(clock, entry)
        return marked

    def _maybe_delete(self, clock: int, entry: LogEntry) -> None:
        if not entry.complete:
            return
        del self.log[clock]
        self.stats.deleted += 1
        if self.log_in_store and self.store_endpoint and self._alive:
            self.endpoint.send(
                self.store_endpoint,
                OpRequest(
                    key=root_log_key(self.root_id, clock),
                    op=DELETE_OP,
                    instance=self.name,
                    blocking=False,
                    log_update=False,
                ),
            )
        # Let the stores drop this clock's duplicate-suppression logs after
        # a grace period (late duplicate copies may still be in flight
        # during clone/straggler transitions).
        if self._alive:
            self._queue_prune(clock)
        for callback in self.on_deleted:
            callback(clock)

    def _queue_prune(self, clock: int) -> None:
        self._prune_queue.append((self.sim.now + self.prune_grace_us, clock))
        if not self._prune_timer_armed:
            self._prune_timer_armed = True
            self.sim.schedule(self.prune_grace_us, self._flush_prunes)

    def _flush_prunes(self) -> None:
        """Send every prune whose grace period has elapsed; re-arm for the
        rest. Deletes are appended in time order, so the queue is sorted.

        The grace period is a *minimum* wait (a clock must not be pruned
        while late duplicate copies may still be in flight); flushing is
        paced at one timer per grace window, so each fire drains a whole
        window's worth of clocks in one message per store — a clock waits
        between one and two grace periods instead of costing its own
        timer and message."""
        self._prune_timer_armed = False
        if not self._alive or not self._prune_queue:
            return
        now = self.sim.now
        ready: List[int] = []
        queue = self._prune_queue
        while queue and queue[0][0] <= now:
            ready.append(queue.popleft()[1])
        if ready:
            for store in self.store_endpoints_for_prune:
                self.endpoint.send(store, PruneRequest(tuple(ready)))
        if self._prune_queue:
            self._prune_timer_armed = True
            self.sim.schedule(self.prune_grace_us, self._flush_prunes)

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    def _on_message(self, envelope: Envelope) -> None:
        payload = envelope.payload
        if isinstance(payload, CommitSignal):
            commit = self.on_commit_signal
            for clock, vector_tag in zip(payload.clocks, payload.vector_tags):
                commit(clock, vector_tag)
        elif isinstance(payload, DeleteRequest):
            for entry in zip(payload.clocks, payload.vectors, payload.generations):
                self.report_done(*entry)

    def _on_request(self, request: RpcRequest) -> None:
        """Server half of the synchronous delete mode (§7.2 "XOR check and
        delete request"): respond once the delete is recorded, so the last
        NF can release the output packet knowing replay cannot duplicate it."""
        payload = request.payload
        if isinstance(payload, DeleteRequest):
            for entry in zip(payload.clocks, payload.vectors, payload.generations):
                self.report_done(*entry)
            self.endpoint.respond(request, True)
        else:
            self.endpoint.respond(request, RuntimeError("bad root request"), ok=False)

    # ------------------------------------------------------------------
    # replay (§5.3, §5.4)
    # ------------------------------------------------------------------

    def replay(
        self,
        target_instance: str,
        pace_us: float = 0.2,
        mark_end: bool = True,
        prior_replayed: int = 0,
    ) -> Generator:
        """Replay all logged packets through the chain (a process body).

        Each replayed copy is marked and carries the target instance's ID
        (§5.3 #3): intervening instances recognise it, the store emulates
        its duplicate updates, and only the target processes it for real.
        Returns the list of replayed clocks.

        Replay is throttled through the chain's bounded queues: when the
        runtime provides ``forward_wait``, each copy waits for entry-ring
        space before being forwarded, so a correlated-failure replay burst
        cannot overrun the entry NICs (it used to ride the ``never_drop``
        exemption instead, which let it grow rings without bound). The
        ``replay_end`` barrier marker still bypasses the bound — losing it
        would wedge the recovery buffer release.

        The marker carries the replay generation's size
        (``prior_replayed`` from earlier roots plus this root's count):
        when the target's upstream path has parallel instances — or one of
        them is mid-handover — the marker can overtake other replayed
        packets, and the target must not release its live-traffic buffer
        until the whole generation has arrived.
        """
        clocks = sorted(self.log)
        replayed: List[int] = []
        for index, clock in enumerate(clocks):
            entry = self.log.get(clock)
            if entry is None:
                continue  # deleted while we were replaying
            entry.generation += 1
            entry.outstanding.append(1)
            entry.reported.append(0)
            copy = entry.packet.copy()
            copy.replayed = True
            copy.replay_target = target_instance
            copy.generation = entry.generation
            copy.bitvector = 0
            copy.replay_end = mark_end and index == len(clocks) - 1
            self.stats.replayed += 1
            replayed.append(clock)
            if copy.replay_end:
                copy.replay_total = prior_replayed + len(replayed)
            if self.forward_wait is not None and not copy.replay_end:
                yield from self.forward_wait(copy)
            self.forward(copy)
            if pace_us:
                yield self.sim.timeout(pace_us)
        return replayed

    # ------------------------------------------------------------------
    # recovery helpers (new-root bootstrap, §5.4 "Root")
    # ------------------------------------------------------------------

    def restore_log(self, snapshot: Dict[str, Packet]) -> int:
        """Rebuild the packet log from a store snapshot (store-kept mode).

        Restored entries have no copy-accounting history; a subsequent
        replay generation re-establishes it.
        """
        restored = 0
        for raw_key, packet in snapshot.items():
            clock = int(raw_key.rsplit("\x1f", 1)[-1])
            if clock in self.log:
                continue
            self.log[clock] = LogEntry(
                packet=packet.copy(),
                dst_instance="",
                logged_at=self.sim.now,
                restored=True,
            )
            restored += 1
        return restored
