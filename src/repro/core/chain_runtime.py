"""The CHC chain runtime: compiles a logical chain and runs it (§3, §4).

``ChainRuntime`` owns everything Figure 3a draws:

* the datastore cluster (one or more instances, vertices pinned to
  instances);
* the root (clock stamping, packet log, delete protocol);
* per-vertex instances, each with its store client, worker threads and a
  line-rate-limited input NIC;
* one splitter per vertex (all upstream producers share the downstream
  vertex's partitioning, as §4.1 requires);
* the per-instance duplicate filters (§5.3) and the packet-copy accounting
  that feeds the root's delete protocol (Figure 6).

The Figure 4 handover and the §4.1 scope walk are :mod:`repro.core.handover`.

Experiments use it like::

    chain = LogicalChain()
    chain.add_vertex("nat", Nat, parallelism=1, entry=True)
    chain.add_vertex("scan", PortscanDetector)
    chain.add_edge("nat", "scan")
    runtime = ChainRuntime(sim, chain)
    source = ReplaySource(sim, trace.packets, runtime.inject, load_fraction=0.5)
    sim.run()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.analysis import runtime as _sanitize
from repro.core.bitvector import TagRegistry
from repro.core.clock import LogicalClock, clock_root
from repro.core.dag import LogicalChain
from repro.core.duplicates import DuplicateFilter
from repro.core.handover import Move
from repro.core.instance import (
    NFInstance,
    POLICY_BLOCK,
    SHED_CAUSE_NIC,
    SHED_CAUSE_QUEUE,
)
from repro.core.nf_api import Output
from repro.core.root import Root
from repro.core.splitter import FIVE_TUPLE, Splitter
from repro.core.vertex_manager import VertexManager
from repro.simnet.engine import Channel, Event, Simulator
from repro.simnet.monitor import (
    LatencyRecorder,
    ThroughputMeter,
    channel_depth_peaks,
    engine_counters,
)
from repro.simnet.network import HOP_LINK_US, ROOT_LINK_US, STORE_LINK_US, Link, Network
from repro.simnet.nic import NIC_OVERHEAD_BITS, NIC_RATE_GBPS, Nic
from repro.store.breaker import CircuitBreaker
from repro.store.client import StoreClient
from repro.store.cluster import StoreCluster
from repro.store.datastore import DatastoreInstance
from repro.store.protocol import DeleteRequest
from repro.traffic.packet import Packet

def _is_control_item(item: Any) -> bool:
    """NIC never-drop predicate: in-band control traffic only.

    Losing a handover marker or the replay-end barrier would wedge a
    Figure-4/§5.4 protocol, so those bypass ring bounds. Bulk *replayed*
    data packets do NOT: a replay storm flows through the same bounded
    queues as live traffic (the root paces against entry-ring space, see
    ``Root.replay``), and a copy that still overruns a ring is shed and
    accounted like any other drop — its log entry stays replayable.
    """
    return (
        getattr(item, "control", None) is not None
        or getattr(item, "mark_first", False)
        or getattr(item, "replay_end", False)
    )


# The circuit breaker each store client gets under ``breaker_enabled``
# (DESIGN.md §8): open after 4 consecutive failures — a store call slower
# than 60 µs (about twice the uncontended round trip) counts as one — and
# stay open 400 µs (plus seeded jitter) before a half-open probe.
BREAKER_FAILURE_THRESHOLD = 4
BREAKER_OPEN_US = 400.0
BREAKER_SLOW_CALL_US = 60.0


@dataclass
class RuntimeParams:
    """Calibrated simulation constants and CHC configuration toggles.

    Model toggles map to §7.1's externalization models:

    * EO        — ``caching_enabled=False, wait_for_acks=True``
    * EO+C      — ``caching_enabled=True,  wait_for_acks=True``
    * EO+C+NA   — ``caching_enabled=True,  wait_for_acks=False`` (default)
    """

    proc_time_us: float = 2.0
    proc_time_overrides: Dict[str, float] = field(default_factory=dict)
    n_workers: int = 8
    wait_for_acks: bool = False
    retransmit_timeout_us: Optional[float] = 500.0
    caching_enabled: bool = True
    sync_delete: bool = False
    suppress_duplicates: bool = True
    store_dedup: bool = True
    clock_persist_every: int = 100
    log_in_store: bool = False
    local_log_cost_us: float = 1.0
    store_op_service_us: float = 0.196
    checkpoint_interval_us: Optional[float] = None
    seed: int = 0

    # --- distributed shard fabric (repro.dist, DESIGN.md §13) -------------
    # ``root_id_base`` offsets this runtime's root IDs so several shard
    # processes share one store without colliding in clock space (shard k
    # owns root{k}, and its clocks carry k in the high bits). A restarted
    # shard passes ``root_clock_resume`` — the highest clock sequence the
    # store has any trace of for its root — so reissued clocks can never
    # collide with the dead incarnation's entries in the dedup log.
    root_id_base: int = 0
    root_clock_resume: Optional[int] = None

    # --- batched run-ahead fast path (§6 "software P4") ------------------
    # When on, NFs marked ``speculative`` run batched worker loops with
    # fused dispatch into adjacent speculative NFs. Off by default:
    # the general path is the semantic baseline the fast path must match
    # byte-for-byte (see tests/test_fastpath.py::TestEquivalence).
    # Incompatible with wait_for_acks (EO/EO+C models serialize every op).
    fastpath_enabled: bool = False
    fastpath_batch: int = 16

    # --- overload resilience (§8; all defaults preserve seed behaviour) ---
    # Bounded instance queues: total backlog bound per NF instance (None =
    # unbounded, the seed's behaviour) and the policy applied when full.
    instance_queue_capacity: Optional[int] = None
    overload_policy: str = "block"  # "block" | "drop" | "shed"
    # Finite NIC rings: tail drops are folded into the Network drop ledger
    # and reported to the root so shed packets are never silent loss.
    nic_queue_limit: Optional[int] = None
    # Store admission control: aggregate thread-queue budget per instance.
    store_inflight_limit: Optional[int] = None
    store_overload_retry_us: float = 50.0
    # Client-side circuit breaker over store access, tuned by the module's
    # BREAKER_* constants.
    breaker_enabled: bool = False

    def proc_time_for(self, vertex: str) -> float:
        return self.proc_time_overrides.get(vertex, self.proc_time_us)


class ChainRuntime:
    """See module docstring."""

    def __init__(
        self,
        sim: Simulator,
        chain: LogicalChain,
        params: Optional[RuntimeParams] = None,
        n_store_instances: int = 1,
        n_roots: int = 1,
        store_cluster: Optional[StoreCluster] = None,
    ):
        chain.validate()
        self.sim = sim
        self.chain = chain
        self.params = params or RuntimeParams()
        self.network = Network(
            sim, Link(latency_us=STORE_LINK_US), seed=self.params.seed
        )
        self.tags = TagRegistry()

        # --- datastore cluster ------------------------------------------
        if store_cluster is not None:
            # External store (repro.dist shard mode): the runtime routes all
            # store traffic through the caller's cluster — typically remote
            # handles whose endpoints the shard bridges onto a socket — and
            # builds no local DatastoreInstance.
            self.store = store_cluster
        else:
            stores = [
                DatastoreInstance(
                    sim,
                    self.network,
                    f"store{i}",
                    op_service_us=self.params.store_op_service_us,
                    root_endpoint="root{root_id}",
                    checkpoint_interval_us=self.params.checkpoint_interval_us,
                    dedup_enabled=self.params.store_dedup,
                    seed=self.params.seed + i,
                    inflight_limit=self.params.store_inflight_limit,
                    overload_retry_after_us=self.params.store_overload_retry_us,
                )
                for i in range(n_store_instances)
            ]
            self.store = StoreCluster(stores)

        # --- instances, splitters ---------------------------------------
        self.instances: Dict[str, NFInstance] = {}
        self.splitters: Dict[str, Splitter] = {}
        self._forget_timers = sim.deadline_queue(self._forget_clock)
        self.managers: Dict[str, VertexManager] = {}
        self._sinks: Set[str] = set(chain.sinks())

        for index, (name, vertex) in enumerate(chain.vertices.items()):
            self._build_vertex(name, vertex, self.stores[index % n_store_instances].name)

        # --- roots ---------------------------------------------------------
        # §4.1/§5: R root instances, statically partitioned input, each
        # stamping clocks carrying its ID in the high bits. root_id_base
        # offsets the IDs (shard k of a distributed fabric owns root IDs
        # starting at k); root_clock_resume restarts the clock above every
        # sequence the store may have seen from a dead incarnation.
        base = self.params.root_id_base
        resume = self.params.root_clock_resume
        self.roots: List[Root] = [
            Root(
                sim,
                self.network,
                f"root{root_id}",
                forward=self._forward_from_root,
                forward_wait=self._entry_hop_wait,
                store_endpoint=self.stores[0].name,
                root_id=root_id,
                persist_every=self.params.clock_persist_every,
                log_in_store=self.params.log_in_store,
                local_log_cost_us=self.params.local_log_cost_us,
                store_endpoints_for_prune=[s.name for s in self.stores],
                clock=(
                    LogicalClock.resume_from(
                        root_id, resume, self.params.clock_persist_every
                    )
                    if resume is not None
                    else None
                ),
            )
            for root_id in range(base, base + n_roots)
        ]
        for root in self.roots:
            root.on_deleted.append(self._on_packet_deleted)
            for instance_id in self.instances:
                self.network.connect(root.name, instance_id, Link(ROOT_LINK_US))

        # --- egress & bookkeeping -----------------------------------------
        self.egress = Channel(sim, name="egress")
        self.egress_recorder = LatencyRecorder(name="chain-egress")
        self.egress_meter = ThroughputMeter(name="chain-egress")
        self.duplicates_suppressed = 0
        # The Figure-4 move table (vertex -> move id -> record), written
        # and read only by repro.core.handover.
        self.moves: Dict[str, Dict[int, Move]] = {}
        # vertex -> resume event: while present, workers emitting into that
        # vertex park on the event (maintenance-director topology splices
        # quiesce a vertex this way; see pause_vertex_input).
        self._paused_vertices: Dict[str, Event] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _build_vertex(self, name: str, vertex, store_name: str) -> None:
        """Everything a vertex needs before traffic can reach it (initial
        build and :meth:`splice_insert_vertex`)."""
        self.store.assign_vertex(name, store_name)
        probe_nf = vertex.nf_factory()
        for op_name, op_fn in probe_nf.custom_operations().items():
            self.store.register_custom_op(op_name, op_fn)
        # The splitter first, already naming every instance: add_instance
        # derives each client's caching rights from the split it joins.
        self.splitters[name] = Splitter(
            name,
            [f"{name}-{k}" for k in range(vertex.parallelism)],
            scopes=probe_nf.scope() or [FIVE_TUPLE],
        )
        for k in range(vertex.parallelism):
            self.add_instance(name, suffix=str(k))

    def add_instance(
        self,
        vertex_name: str,
        suffix: str,
        start_buffering: bool = False,
        extra_delay=None,
    ) -> NFInstance:
        """Create one instance of a vertex (initial build, scale-up, clone,
        or failover all come through here)."""
        vertex = self.chain.vertices[vertex_name]
        instance_id = f"{vertex_name}-{suffix}"
        if instance_id in self.instances:
            raise ValueError(f"instance {instance_id!r} already exists")
        nf = vertex.nf_factory()
        specs = nf.state_specs()
        breaker = None
        if self.params.breaker_enabled:
            breaker = CircuitBreaker(
                self.sim,
                name=f"{instance_id}-breaker",
                failure_threshold=BREAKER_FAILURE_THRESHOLD,
                open_us=BREAKER_OPEN_US,
                slow_call_us=BREAKER_SLOW_CALL_US,
                seed=self.params.seed,
            )
        client = StoreClient(
            self.sim,
            self.network,
            self.store,
            vertex_id=vertex_name,
            instance_id=instance_id,
            specs=specs,
            vector_tags=self.tags.tags_for(vertex_name, specs.keys()),
            wait_for_acks=self.params.wait_for_acks,
            caching_enabled=self.params.caching_enabled,
            retransmit_timeout_us=self.params.retransmit_timeout_us,
            breaker=breaker,
        )
        for op_name, op_fn in nf.custom_operations().items():
            client.registry.register(op_name, op_fn, allow_replace=True)
        instance = NFInstance(
            self.sim,
            self,
            vertex_name,
            instance_id,
            nf,
            client,
            n_workers=self.params.n_workers,
            proc_time_us=self.params.proc_time_for(vertex_name),
            extra_delay=extra_delay,
            start_buffering=start_buffering,
            queue_capacity=self.params.instance_queue_capacity,
            overload_policy=self.params.overload_policy,
            fastpath_enabled=(
                self.params.fastpath_enabled and not self.params.wait_for_acks
            ),
            fastpath_batch=self.params.fastpath_batch,
        )
        self.instances[instance_id] = instance
        instance.nic = Nic(
            self.sim,
            NIC_RATE_GBPS,
            deliver=instance.enqueue,
            name=f"{instance_id}-nic",
            queue_limit=self.params.nic_queue_limit,
            per_packet_overhead_bits=NIC_OVERHEAD_BITS,
            # ring tail drops feed the unified drop ledger + root accounting
            on_drop=lambda item: self._on_nic_drop(instance, item),
            # handover markers and recovery traffic must never tail-drop
            never_drop=_is_control_item,
            # a bounded instance input pushes back on the NIC (BLOCK)
            deliver_wait=instance.input.space_event,
            # deadlock-sanitizer nodes: this ring, and the receive side it feeds
            wait_labels=(f"nic:{instance_id}", f"rx:{instance_id}"),
        )
        instance.filter = DuplicateFilter(
            instance_id, enabled=self.params.suppress_duplicates
        )
        for root in getattr(self, "roots", []):
            self.network.connect(root.name, instance_id, Link(ROOT_LINK_US))
        self.splitters[vertex_name].add_instance(instance_id)
        self._apply_exclusivity([instance])
        return instance

    def _apply_exclusivity(self, instances=None) -> None:
        """Tell clients (all, by default) which cross-flow objects the
        current split confines to them (§4.3 "Cross-flow state"). Free —
        nothing is flushed — so only for a fresh instance or a build-time
        change of the split; a live one is ``handover.notify_split_changed``."""
        for instance in instances or self.instances.values():
            splitter = self.splitters[instance.vertex_name]
            for obj_name, spec in instance.client.specs.items():
                instance.client._exclusive[obj_name] = splitter.grants_exclusive(spec)

    def retire_instance(self, instance_id: str) -> NFInstance:
        """Remove an instance that has no successor (``handover.evacuate``,
        vertex removal, the clone a §5.3 mitigation did not keep).

        Unlike :meth:`NFInstance.fail` this is an *orderly* exit — the
        supervisor will not treat it as a crash — so it refuses a live
        instance that still has packet copies dispatched to it: they would
        be handed to a closed port or die with its workers, in no ledger.
        A dead one has nothing left to lose (``_deliver`` keeps counting
        copies toward a corpse) and is never refused.
        """
        return self._leave(instance_id)

    def replace_instance(self, old_id: str, new_id: str) -> NFInstance:
        """Retire ``old_id`` with ``new_id`` as its successor (failover,
        upgrade cutover, a kept clone): it takes the hash slot — no flow
        remaps — the overrides and the place in the splitter's list, and
        its caching rights are derived from the split it now holds."""
        return self._leave(old_id, new_id)

    def _leave(self, instance_id: str, successor_id: Optional[str] = None) -> NFInstance:
        """Both exits (DESIGN.md §8 "Instance membership")."""
        instance = self.instances[instance_id]
        if instance.alive and instance.inbound:
            raise RuntimeError(
                f"{instance_id}: retired with {instance.inbound} packet copies in flight"
            )
        splitter = self.splitters[instance.vertex_name]
        if successor_id is None:
            splitter.remove_instance(instance_id)
        else:
            splitter.replace_instance(instance_id, successor_id)
            self._apply_exclusivity([self.instances[successor_id]])
        del self.instances[instance_id]
        instance.nic.fail()
        instance.fail()
        return instance

    # ------------------------------------------------------------------
    # planned topology edits (maintenance director, DESIGN.md §12)
    # ------------------------------------------------------------------

    def pause_vertex_input(self, vertex_name: str) -> None:
        """Gate all NF->NF emission into ``vertex_name``.

        Workers about to deliver a packet into the vertex park (in FIFO
        order, so per-flow order is preserved across the pause) until
        :meth:`resume_vertex_input`. The entry vertex cannot be paused —
        the root's forward path is synchronous by design.
        """
        if vertex_name == self.chain.entry:
            raise ValueError("cannot pause the entry vertex (root forward path)")
        if vertex_name not in self.splitters:
            raise KeyError(f"unknown vertex {vertex_name!r}")
        if vertex_name not in self._paused_vertices:
            self._paused_vertices[vertex_name] = self.sim.event(
                name=f"resume({vertex_name})"
            )

    def resume_vertex_input(self, vertex_name: str) -> None:
        """Release workers parked by :meth:`pause_vertex_input`. Parked
        deliveries re-resolve their hop, so a splice that replaced the
        paused vertex routes them to its successor."""
        gate = self._paused_vertices.pop(vertex_name, None)
        if gate is not None and not gate.triggered:
            gate.succeed(None)

    def _resolve_hop(self, vertex_name: str, label: str, fallback: str) -> str:
        """Re-resolve a delivery hop after a pause: the topology may have
        been spliced while the worker was parked."""
        matches = [e for e in self.chain.out_edges(vertex_name) if e.label == label]
        if not matches:
            return fallback
        for edge in matches:
            if edge.dst == fallback:
                return fallback
        return matches[0].dst

    def splice_insert_vertex(
        self,
        name: str,
        nf_factory,
        src: str,
        dst: str,
        parallelism: int = 1,
        store_name: Optional[str] = None,
        label: str = "out",
    ) -> List[NFInstance]:
        """Insert a new vertex on the ``src -> dst`` edge (one sim instant).

        The edge is re-pointed at the new vertex and a ``name -> dst`` edge
        added atomically — no yields — so every packet routes either the
        old way or the new way, never half. Per-flow order is preserved
        without a barrier: the new path is strictly longer (one extra NF),
        so a pre-splice packet always reaches ``dst`` before any post-
        splice packet of its flow.
        """
        if name in self.chain.vertices:
            raise ValueError(f"duplicate vertex {name!r}")
        edge = next(
            (
                e
                for e in self.chain.edges
                if e.src == src and e.dst == dst and e.label == label and not e.mirror
            ),
            None,
        )
        if edge is None:
            raise KeyError(f"no plain edge {src!r} -> {dst!r} (label {label!r})")
        vertex = self.chain.add_vertex(name, nf_factory, parallelism=parallelism)
        self._build_vertex(
            name,
            vertex,
            store_name or self.stores[(len(self.chain.vertices) - 1) % len(self.stores)].name,
        )
        # routing cutover: src -> name -> dst, in place of src -> dst
        edge.dst = name
        self.chain.add_edge(name, dst, label="out")
        self._sinks = set(self.chain.sinks())
        self.chain.validate()
        if self.managers:
            self._start_manager(name, next(iter(self.managers.values())).interval_us)
        return self.instances_of(name)

    def splice_remove_vertex(self, name: str) -> None:
        """Remove a mid-chain vertex, re-pointing its in-edges at its
        unique successor (one sim instant).

        The caller (maintenance director) must already have paused input
        to the vertex, drained its instances, and disowned their state —
        this is only the structural cutover. Unlike insertion, removal
        *shortens* the path, so it is only order-safe behind the
        pause/drain barrier the director holds.
        """
        if name not in self.chain.vertices:
            raise KeyError(f"unknown vertex {name!r}")
        if name == self.chain.entry:
            raise ValueError("cannot remove the entry vertex")
        in_edges = self.chain.in_edges(name)
        out_edges = self.chain.out_edges(name)
        if len(out_edges) != 1 or out_edges[0].mirror:
            raise ValueError(f"vertex {name!r} is not a plain mid-chain vertex")
        if any(e.mirror for e in in_edges) or not in_edges:
            raise ValueError(f"vertex {name!r} has mirror or no in-edges")
        successor = out_edges[0].dst
        if any(e.src == successor for e in in_edges):
            raise ValueError(f"removing {name!r} would create a self-loop")
        for edge in in_edges:
            edge.dst = successor
        self.chain.edges.remove(out_edges[0])
        del self.chain.vertices[name]
        for instance_id in list(self.splitters[name].instances):
            self.retire_instance(instance_id)
        del self.splitters[name]
        manager = self.managers.pop(name, None)
        if manager is not None:
            manager.stop()
        self.store.unassign_vertex(name)
        self._sinks = set(self.chain.sinks())
        self.chain.validate()

    def instance(self, instance_id: str) -> NFInstance:
        return self.instances[instance_id]

    def instances_of(self, vertex_name: str) -> List[NFInstance]:
        return [self.instances[i] for i in self.splitters[vertex_name].instances]

    @property
    def stores(self) -> List[DatastoreInstance]:
        """The store nodes, in the cluster map's order (read-only view)."""
        return self.store.instances

    def splitter(self, vertex_name: str) -> Splitter:
        return self.splitters[vertex_name]

    def start_vertex_managers(self, interval_us: float = 1_000.0) -> None:
        for name in self.chain.vertices:
            if name not in self.managers:
                self._start_manager(name, interval_us)

    def _start_manager(self, name: str, interval_us: float) -> None:
        vertex = self.chain.vertices[name]
        self.managers[name] = VertexManager(
            self.sim,
            name,
            instances_fn=lambda: self.instances_of(name),
            interval_us=interval_us,
            scaling_logic=vertex.scaling_logic,
            straggler_logic=vertex.straggler_logic,
        )

    # ------------------------------------------------------------------
    # traffic path
    # ------------------------------------------------------------------

    @property
    def root(self) -> Root:
        """The (first) root — single-root deployments use this directly."""
        return self.roots[0]

    @root.setter
    def root(self, new_root: Root) -> None:
        # root failover replaces the failed root in place
        for index, existing in enumerate(self.roots):
            if existing.root_id == new_root.root_id:
                self.roots[index] = new_root
                return
        self.roots[0] = new_root

    def root_for(self, clock: int) -> Root:
        """The root that logged this clock (high bits carry the root ID)."""
        if len(self.roots) == 1:
            return self.roots[0]
        root_id = clock_root(clock)
        for root in self.roots:
            if root.root_id == root_id:
                return root
        return self.roots[0]

    def inject(self, packet: Packet) -> None:
        """Feed one input packet into the chain.

        With multiple roots, traffic is statically partitioned among them
        by flow (the operator requirement of §4.1: no overlap between the
        root instances' shares).
        """
        if len(self.roots) == 1:
            self.roots[0].inject(packet)
            return
        from repro.util import stable_hash

        index = stable_hash(packet.five_tuple.canonical().key()) % len(self.roots)
        self.roots[index].inject(packet)

    def _forward_from_root(self, packet: Packet) -> None:
        entry = self.chain.entry
        destinations = self._deliver(entry, packet)
        if destinations:
            self.root_for(packet.clock).note_destination(packet.clock, destinations[0])

    def _entry_hop_wait(self, packet: Packet) -> Generator:
        """Replay-storm throttle: park the root's replay process until the
        entry NIC(s) for this packet have ring space.

        Replayed traffic used to ride the ``never_drop`` exemption —
        correct, but a correlated-failure replay burst could grow entry
        rings without bound and starve live traffic. Instead the replay
        source itself is subject to the same bounded queues: it admits one
        copy per free ring slot. No-op when rings are unbounded.
        """
        if self.params.nic_queue_limit is None:
            return
        # let the previous copy's link-delayed nic.send land before probing
        # ring space, otherwise a zero-pace storm passes the check faster
        # than sends arrive and overruns the ring anyway
        yield self.sim.timeout(HOP_LINK_US)
        yield from self._await_hop_space(self.chain.entry, packet, emitter_id="replay")

    # ------------------------------------------------------------------
    # overload shedding (§8)
    # ------------------------------------------------------------------

    def note_shed(self, instance: Optional[NFInstance], packet: Packet,
                  cause: str = SHED_CAUSE_QUEUE) -> None:
        """Account one deliberately shed packet copy — never silent loss.

        The drop lands in the Network per-cause ledger (what the chaos
        invariant checkers audit) and the copy reports done to its root
        with whatever bit vector it accumulated: upstream commit signals
        XOR those tags off exactly as on the normal drop path in ``emit``,
        so the root log drains and the delete protocol stays live.
        """
        self.network.account_drop(cause)
        if packet.clock:
            self.root_for(packet.clock).report_done(
                packet.clock, packet.bitvector, packet.generation
            )
        if packet.replayed:
            # A bulk replayed copy shed short of its target: the target
            # must stop waiting for it, or it buffers live traffic forever.
            target = self.instances.get(packet.replay_target)
            if target is not None:
                target.replay_copy_lost()

    def _on_nic_drop(self, instance: NFInstance, item: Any) -> None:
        """``instance``'s finite NIC ring tail-dropped ``item``: it goes to
        the drop ledger, which the invariant checkers audit, like a shed."""
        if isinstance(item, Packet):
            instance._uncount(item)
            self.note_shed(instance, item, SHED_CAUSE_NIC)
        else:
            self.network.account_drop(SHED_CAUSE_NIC)

    @property
    def _backpressure_hops(self) -> bool:
        """BLOCK policy + finite rings: emit waits for downstream NIC space
        instead of tail-dropping on NF->NF hops."""
        return (
            self.params.overload_policy == POLICY_BLOCK
            and self.params.nic_queue_limit is not None
        )

    def _await_hop_space(
        self, vertex_name: str, packet: Packet, emitter_id: str = ""
    ) -> Generator:
        """Park the emitting worker until the destination NIC(s) for this
        packet have ring space (hop-by-hop backpressure).

        The destination is *predicted* without calling ``route`` (route
        mutates pending-``mark_first`` state and must run exactly once, in
        ``_deliver``). Control/recovery traffic never waits — it bypasses
        ring bounds entirely.
        """
        if _is_control_item(packet):
            return
        splitter = self.splitters[vertex_name]
        while True:
            if packet.replay_target is not None and packet.replay_target in splitter.instances:
                targets = [packet.replay_target]
            else:
                primary = splitter.current_instance_for(splitter.key_of(packet))
                targets = [primary]
                clone = splitter.replicate.get(primary)
                if clone is not None:
                    targets.append(clone)
            waiting = [t for t in targets if not self.instances[t].nic.has_space()]
            if not waiting:
                return
            suite = _sanitize.ACTIVE
            if suite is not None:
                for t in waiting:
                    suite.wait_edge(self.sim, f"wkr:{emitter_id}", f"nic:{t}")
            try:
                yield self.sim.all_of([self.instances[t].nic.space_event() for t in waiting])
            finally:
                if suite is not None:
                    for t in waiting:
                        suite.release_edge(f"wkr:{emitter_id}", f"nic:{t}")

    def _replicate(self, packet: Packet) -> Packet:
        copy = packet.copy()
        copy.bitvector = 0  # each tracked copy reports its own tags once
        return copy

    def _deliver(self, vertex_name: str, packet: Packet) -> List[str]:
        """Route one packet copy to a vertex; returns instance IDs reached."""
        splitter = self.splitters[vertex_name]
        destinations = splitter.route(packet)
        copies = [(destinations[0], packet)]
        for dst in destinations[1:]:
            copies.append((dst, self._replicate(packet)))
        if len(copies) > 1:
            self.root_for(packet.clock).add_outstanding(
                packet.clock, len(copies) - 1, packet.generation
            )
        reached: List[str] = []
        for dst, copy in copies:
            target = self.instances[dst]
            if not target.filter.admit(copy):
                self.duplicates_suppressed += 1
                # The suppressed copy's updates were (or will be) emulated,
                # so its tags are accounted for by the surviving copy.
                self.root_for(copy.clock).report_done(copy.clock, 0, copy.generation)
                continue
            # Counted at dispatch (not arrival), so the NIC/link
            # in-flight window holds a retirement (and fusion) back too.
            target._count_inflight(copy)
            self.sim.schedule(
                HOP_LINK_US, target.nic.send, copy, copy.size_bits
            )
            reached.append(dst)
        return reached

    def _inherit(self, child: Packet, parent: Packet) -> None:
        """NF-created output packets join the parent's accounting."""
        child.clock = parent.clock
        child.generation = parent.generation
        child.replayed = parent.replayed
        child.replay_target = parent.replay_target
        child.replay_end = False
        child.ingress_time = parent.ingress_time
        child.mark_first = False
        child.mark_last = False
        child.control = None

    def emit(
        self,
        instance: NFInstance,
        packet: Packet,
        outputs: List[Output],
        delete_sink: Optional[List[Tuple[str, int, int, int]]] = None,
    ) -> Generator:
        """Route an instance's outputs; runs the copy accounting and the
        last-NF delete protocol (§5.4). Generator — the worker drives it.

        ``delete_sink`` (fast path only): instead of sending the async
        delete report immediately, append ``(root_name, clock, vector,
        generation)`` — the batched worker flushes the whole batch's
        reports in one message per root."""
        vertex_name = instance.vertex_name
        clock, generation = packet.clock, packet.generation
        out_edges = self.chain.out_edges(vertex_name)

        deliveries: List[Tuple[str, str, Packet]] = []
        exits: List[Packet] = []
        carrier_assigned = False
        for output in outputs:
            child = output.packet
            if child is not packet:
                self._inherit(child, packet)
            matches = [e for e in out_edges if e.label == output.edge]
            if not matches:
                exits.append(child)
                continue
            for edge in matches:
                if not carrier_assigned:
                    copy = child
                    copy.bitvector = packet.bitvector
                    carrier_assigned = True
                else:
                    copy = child.copy()
                    copy.bitvector = 0
                deliveries.append((edge.dst, output.edge, copy))

        if not deliveries:
            # This copy's journey ends at this instance: either the chain
            # exit (formal delete protocol) or a drop (direct report).
            if vertex_name in self._sinks or exits:
                if self.params.sync_delete and clock:
                    # §7.2: the output is released only after the delete is
                    # acknowledged. Only this packet's release waits — the
                    # worker moves on (the NF pipeline is not stalled).
                    self.sim.process(
                        self._sync_delete_then_egress(
                            instance, clock, packet.bitvector, generation,
                            vertex_name, list(exits),
                        ),
                        name=f"sync-delete-{clock}",
                    )
                    return
                if delete_sink is not None and clock:
                    delete_sink.append(
                        (self.root_for(clock).name, clock, packet.bitvector, generation)
                    )
                else:
                    yield from self._send_delete(
                        instance, clock, packet.bitvector, generation
                    )
            else:
                self.root_for(clock).report_done(clock, packet.bitvector, generation)
            for child in exits:
                self._to_egress(vertex_name, child)
            return

        if len(deliveries) > 1:
            self.root_for(clock).add_outstanding(clock, len(deliveries) - 1, generation)
        for child in exits:
            self._to_egress(vertex_name, child)
        backpressure = self._backpressure_hops
        for dst_vertex, label, copy in deliveries:
            while True:
                gate = self._paused_vertices.get(dst_vertex)
                if gate is not None:
                    # Maintenance splice in progress downstream: park on the
                    # gate (FIFO wake preserves per-flow order), then re-
                    # resolve the hop — the parked vertex may have been
                    # spliced out while we waited.
                    yield gate
                    if not instance._alive:
                        return
                    dst_vertex = self._resolve_hop(vertex_name, label, dst_vertex)
                    continue
                if backpressure:
                    # Hop-by-hop backpressure (§8): the emitting worker parks
                    # until the downstream ring has space, instead of letting
                    # the NIC tail-drop the copy.
                    yield from self._await_hop_space(
                        dst_vertex, copy, instance.instance_id
                    )
                    if not instance._alive:
                        return
                    if dst_vertex in self._paused_vertices:
                        continue  # paused while waiting for ring space
                break
            self._deliver(dst_vertex, copy)

    # ------------------------------------------------------------------
    # fused fast-path dispatch (§6)
    # ------------------------------------------------------------------

    def fusion_successor(self, vertex_name: str, edge_label: str) -> Optional[str]:
        """The unique downstream vertex behind ``edge_label``, if fusable.

        Fusion follows only plain point-to-point edges: an edge label that
        fans out (mirror edges) needs the copy accounting of the general
        ``emit`` path, so it returns None.
        """
        matches = [
            e for e in self.chain.out_edges(vertex_name) if e.label == edge_label
        ]
        if len(matches) != 1:
            return None
        return matches[0].dst

    def fast_target(self, vertex_name: str, packet: Packet) -> Optional[NFInstance]:
        """The instance a packet may be fused into at ``vertex_name``, or
        None when it must take the general delivery path.

        Requires total splitter quiescence — a single instance, no clone
        replication, no overrides and no armed ``mark_first`` (any past or
        pending move permanently disables fusion into the vertex, which is
        conservative but keeps the Figure 4 windows airtight) — plus a
        fast-path executor at the target and a clear per-flow latch.
        """
        if vertex_name in self._paused_vertices:
            return None  # maintenance splice: everything takes the gated path
        splitter = self.splitters.get(vertex_name)
        if (
            splitter is None
            or len(splitter.instances) != 1
            or splitter.replicate
            or splitter.overrides
            or splitter._pending_first
        ):
            return None
        instance = self.instances[splitter.instances[0]]
        if not instance.alive or instance._fastpath is None:
            return None
        if instance._inflight_flows.get(packet.five_tuple.canonical().key()):
            return None
        return instance

    def _send_delete(
        self, instance: NFInstance, clock: int, vector: int, generation: int
    ) -> Generator:
        """Last-NF delete request (§5.4), asynchronous form."""
        if clock == 0:
            return
        request = DeleteRequest((clock,), (vector,), (generation,))
        instance.client.endpoint.send(self.root_for(clock).name, request)
        return
        yield  # pragma: no cover - generator protocol

    def _sync_delete_then_egress(
        self,
        instance: NFInstance,
        clock: int,
        vector: int,
        generation: int,
        vertex_name: str,
        exits: List[Packet],
    ) -> Generator:
        """Synchronous delete (§7.2): wait for the root's ACK, then release
        the output — the end host can never see a duplicate even if the
        last NF fails right here (Theorem B.4.4)."""
        request = DeleteRequest((clock,), (vector,), (generation,))
        yield from instance.client.endpoint.call(self.root_for(clock).name, request)
        for child in exits:
            self._to_egress(vertex_name, child)

    def _to_egress(self, vertex_name: str, packet: Packet) -> None:
        self.egress_recorder.record(
            self.sim.now - packet.ingress_time, timestamp=self.sim.now
        )
        self.egress_meter.add(packet.size_bits, self.sim.now)
        self.egress.put((vertex_name, packet))

    def _on_packet_deleted(self, clock: int) -> None:
        # Forget filter state only after the same grace period the store
        # prunes use: late copies of a just-deleted packet (a replay pass
        # overlapping the original's completion) must still be suppressed.
        self._forget_timers.add(self.root_for(clock).prune_grace_us, clock)

    def _forget_clock(self, clock: int) -> None:
        for instance in self.instances.values():
            instance.filter.forget(clock)
            instance._seen_clocks.discard(clock)

    # ------------------------------------------------------------------
    # failure handling (chaos campaigns, §5.4)
    # ------------------------------------------------------------------

    def attach_supervisor(self, injector=None, **kwargs):
        """Create a :class:`~repro.core.supervisor.Supervisor` wired to this
        runtime (and to ``injector``'s failure notifications, when given)."""
        from repro.core.supervisor import Supervisor

        supervisor = Supervisor(self, **kwargs)
        if injector is not None:
            injector.on_failure(supervisor.on_failure)
        return supervisor

    # ------------------------------------------------------------------
    # engine performance forensics
    # ------------------------------------------------------------------

    def engine_report(self) -> Dict[str, Any]:
        """Engine counters plus per-component queue high-water marks.

        Experiments attach this to their results to explain wall-clock
        behaviour: events processed, the microtask share (work that skipped
        the timer heap), the heap peak, and where queueing built up.
        """
        report: Dict[str, Any] = engine_counters(self.sim, self.network).as_dict()
        report["network_drops"] = dict(self.network.drops)
        channels: Dict[str, Channel] = {"egress": self.egress}
        for instance_id, instance in self.instances.items():
            channels[f"{instance_id}.input"] = instance.input
        report["channel_depth_peaks"] = channel_depth_peaks(channels)
        report["instance_queue_peaks"] = {
            instance_id: instance.queue_depth_peak
            for instance_id, instance in self.instances.items()
            if instance.queue_depth_peak
        }
        report["nic_txq_peaks"] = {
            instance_id: instance.nic.txq_depth_peak
            for instance_id, instance in self.instances.items()
            if instance.nic.txq_depth_peak
        }
        report["sheds"] = {
            instance_id: instance.stats.shed
            for instance_id, instance in self.instances.items()
            if instance.stats.shed
        }
        report["nic_deliver_stalls"] = {
            instance_id: instance.nic.deliver_stalls
            for instance_id, instance in self.instances.items()
            if instance.nic.deliver_stalls
        }
        fastpath: Dict[str, Any] = {}
        for instance_id, instance in self.instances.items():
            executor = instance._fastpath
            if executor is None:
                continue
            if executor.stats_fast or executor.stats_fallback:
                fastpath[instance_id] = {
                    "fast": executor.stats_fast,
                    "fallback": executor.stats_fallback,
                    "fused_in": executor.stats_fused_in,
                    "batches_sent": instance.client.stats_batches_sent,
                }
        if fastpath:
            report["fastpath"] = fastpath
        return report
