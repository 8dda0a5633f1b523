"""A shard process: one chain replica's engine loop behind real sockets.

Each shard hosts an unmodified :class:`~repro.core.chain_runtime.ChainRuntime`
— entry/exit NF instances, a root with its packet log and clock, the real
:class:`~repro.store.client.StoreClient` machinery — and bridges every
store-bound message onto a framed-TCP connection to the shared store node.
The bridge is deliberately dumb: it moves envelopes, nothing else. All
delivery semantics (RPC retransmission and :class:`RpcGaveUp`, flush
retransmission against the dedup log, commit-signal accounting) come from
the in-process protocol stack, now absorbing *real* socket loss instead of
simulated loss.

Durable identity across SIGKILL: the shard appends every injected packet
to an injection ledger and every egressed packet to an egress ledger
(flushed line-JSON) **before/as** the event happens. A respawned
incarnation reads its own injection ledger and resumes each flow at the
last injected sequence + 1 — packets that were in flight when the process
died are simply lost (bounded, provable loss: the fabric checks final
state *trails* the reference by at most the window, never exceeds it, and
egress stays exactly-once because no identity is ever injected twice).
Its root resumes above the clock floor the store derived from the dead
incarnation's traces, so reissued clocks never collide in the dedup log.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.counters import EntryCounterNF, SinkCounterNF
from repro.core.chain_runtime import ChainRuntime, RuntimeParams
from repro.core.dag import LogicalChain
from repro.dist.node import ControlLink, Pacer, load_config
from repro.dist.transport import Connection, DataFrame, control_frame, data_frame, wait_readable
from repro.simnet.engine import Simulator
from repro.simnet.network import Envelope, Network
from repro.store.cluster import StoreCluster
from repro.store.operations import default_registry
from repro.traffic.packet import FiveTuple, Packet

#: Injection window: at most this many packets in flight (injected, not
#: yet egressed) per shard. Bounds what a SIGKILL can lose — the fabric's
#: loss allowance is derived from it.
INJECT_WINDOW = 16

#: Prune wire types the bridge holds back while flushes are un-ACKed (see
#: :meth:`ShardWorker._bridge_out`).
_PRUNE_TYPES = ("PruneRequest", "BatchedPruneRequest")


class RemoteStoreHandle:
    """Stand-in for a store instance that lives in another process.

    Carries exactly what the local routing layer needs — a name for the
    cluster map and an operation registry for custom-op registration. All
    actual traffic to it is bridged over the socket by :class:`ShardWorker`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.registry = default_registry()
        self.alive = True
        self.lame_duck = False


def build_shard_chain(prefix: str) -> LogicalChain:
    """The campaign workload chain with shard-prefixed vertex names, so
    several shards can share one store without key collisions."""
    chain = LogicalChain(f"dist-{prefix}")
    chain.add_vertex(f"{prefix}-entry", EntryCounterNF, entry=True)
    chain.add_vertex(f"{prefix}-exit", SinkCounterNF)
    chain.add_edge(f"{prefix}-entry", f"{prefix}-exit")
    return chain


def build_shard_runtime(
    sim: Simulator,
    prefix: str,
    shard_index: int,
    seed: int,
    remote_store: Optional[str] = None,
    root_clock_resume: Optional[int] = None,
    **overrides: Any,
) -> ChainRuntime:
    """A shard's runtime: local engine, root ``root{shard_index}``, and —
    when ``remote_store`` is given — a store cluster of one remote handle.

    The fabric's in-process reference runs call this too, with
    ``remote_store=None``: identical chain, identical params, local store.
    """
    params = dict(seed=seed, root_id_base=shard_index, root_clock_resume=root_clock_resume)
    params.update(overrides)
    cluster = None
    if remote_store is not None:
        cluster = StoreCluster([RemoteStoreHandle(remote_store)])  # type: ignore[list-item]
    return ChainRuntime(
        sim,
        build_shard_chain(prefix),
        params=RuntimeParams(**params),
        store_cluster=cluster,
    )


def workload_order(
    prefix: str, n_packets: int, n_flows: int
) -> List[Tuple[int, int, str]]:
    """The full injection order: (flow, seq, payload) triples, round-robin
    across flows, payloads stamped with the shard prefix so identities are
    globally unique across the fabric."""
    order: List[Tuple[int, int, str]] = []
    seq_per_flow = [0] * n_flows
    for index in range(n_packets):
        flow = index % n_flows
        seq_per_flow[flow] += 1
        order.append((flow, seq_per_flow[flow], f"{prefix}:f{flow}-{seq_per_flow[flow]}"))
    return order


def read_ledger(path: str) -> List[Dict[str, Any]]:
    """Line-JSON ledger entries; a torn last line (SIGKILL mid-write) is
    skipped, matching the WAL's torn-tail rule."""
    entries: List[Dict[str, Any]] = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                break
    return entries


class ShardWorker:
    """One shard process: runtime + bridge + ledgers + control plane."""

    def __init__(self, config: Dict[str, Any]) -> None:
        self.config = config
        self.prefix = config["prefix"]
        self.shard_index = int(config["shard_index"])
        self.seed = int(config.get("seed", 0))
        self.store_name = config.get("store_name", "store0")
        self.n_packets = int(config.get("n_packets", 80))
        self.n_flows = int(config.get("n_flows", 6))
        self.inject_window = int(config.get("inject_window", INJECT_WINDOW))
        self.injection_ledger_path = config["injection_ledger"]
        self.egress_ledger_path = config["egress_ledger"]

        self.sim = Simulator()
        self.pacer = Pacer(float(config.get("time_scale", 20.0)))
        self.runtime = build_shard_runtime(
            self.sim,
            self.prefix,
            self.shard_index,
            self.seed,
            remote_store=self.store_name,
            root_clock_resume=config.get("root_clock_resume"),
            **config.get("runtime_overrides", {}),
        )
        self.network: Network = self.runtime.network
        self.network.default_route = self._bridge_out
        self.bridge_tx = 0
        self.bridge_rx = 0

        # resume: skip everything the previous incarnation already injected
        already = read_ledger(self.injection_ledger_path)
        last_seq: Dict[int, int] = {}
        for entry in already:
            flow = int(entry["flow"])
            last_seq[flow] = max(last_seq.get(flow, 0), int(entry["seq"]))
        self._order = [
            item
            for item in workload_order(self.prefix, self.n_packets, self.n_flows)
            if item[1] > last_seq.get(item[0], 0)
        ]
        self._order_pos = 0
        self.injected = 0  # this incarnation
        self.egressed = 0  # this incarnation
        self._egress_drained = 0  # index into runtime.egress._items
        self.started = bool(config.get("autostart", False))
        self.running = True
        self._store_recovered_pending = False
        self._held_prunes: List[Any] = []
        self._inj_fh = open(self.injection_ledger_path, "a", encoding="utf-8")
        self._egr_fh = open(self.egress_ledger_path, "a", encoding="utf-8")

        self.store_conn = Connection(
            config["store_host"],
            int(config["store_port"]),
            seed=self.seed ^ (self.shard_index << 8),
            label=f"{self.prefix}->{self.store_name}",
            on_connect=self._store_hello,
        )
        self.control = ControlLink(
            config["control_host"],
            int(config["control_port"]),
            role="shard",
            name=self.prefix,
            seed=self.seed ^ (self.shard_index << 8) ^ 1,
        )

    # -- bridging ------------------------------------------------------

    def _local_endpoints(self) -> List[str]:
        return list(self.network._inboxes) + list(self.network._callbacks)

    def _store_hello(self, conn: Connection) -> None:
        """Replayed after every (re)connect: announce every local endpoint
        name so the store node can route replies and commit signals here —
        including ``root{k}``, which may never send anything itself."""
        conn.send_obj(control_frame({"type": "hello", "names": self._local_endpoints()}))

    def _bridge_out(self, envelope: Envelope) -> bool:
        if envelope.dst != self.store_name:
            return False
        frame = data_frame(envelope.src, envelope.dst, envelope.payload)
        inner = getattr(envelope.payload, "payload", None)
        if type(inner).__name__ in _PRUNE_TYPES and self._pending_flushes() > 0:
            # The race this guards: the store's commit signal (store->root)
            # and its flush ACK (store->client) travel independently, and a
            # broken socket can lose the ACK but not the signal. The root
            # then sees a full commit vector and prunes the clock — wiping
            # the store's dedup record — while the client is *still
            # retransmitting* that clock's op because the ACK never came.
            # The retransmission would re-apply. So prunes wait at the
            # bridge until every pending flush has been (re-)ACKed; they
            # are one-way fire-and-forget messages, so delaying them is
            # invisible to the root.
            self._held_prunes.append(frame)
            self.bridge_tx += 1
            return True
        self.store_conn.send_obj(frame)
        self.bridge_tx += 1
        return True

    def _release_held_prunes(self) -> None:
        if self._held_prunes and self._pending_flushes() == 0:
            for frame in self._held_prunes:
                self.store_conn.send_obj(frame)
            self._held_prunes.clear()

    def _handle_store_frame(self, frame: Any) -> None:
        if not isinstance(frame, DataFrame):
            return
        self.bridge_rx += 1
        self.network.send(frame.src, frame.dst, frame.payload)

    # -- workload ------------------------------------------------------

    def _inject_some(self) -> None:
        while (
            self._order_pos < len(self._order)
            and self.injected - self.egressed < self.inject_window
        ):
            flow, seq, payload = self._order[self._order_pos]
            self._order_pos += 1
            # ledger first: once a packet identity is on disk it is never
            # injected again by any future incarnation
            self._inj_fh.write(
                json.dumps({"flow": flow, "seq": seq, "payload": payload}) + "\n"
            )
            self._inj_fh.flush()
            self.runtime.inject(
                Packet(
                    FiveTuple("10.0.0.1", "52.0.0.1", 1000 + flow, 80, 6),
                    payload=payload,
                )
            )
            self.injected += 1

    def _drain_egress(self) -> None:
        items = self.runtime.egress._items
        while self._egress_drained < len(items):
            _vertex, packet = items[self._egress_drained]
            self._egress_drained += 1
            self.egressed += 1
            self._egr_fh.write(
                json.dumps({"payload": packet.payload, "clock": packet.clock}) + "\n"
            )
            self._egr_fh.flush()

    @property
    def workload_done(self) -> bool:
        return self._order_pos >= len(self._order)

    # -- control plane -------------------------------------------------

    def _pending_flushes(self) -> int:
        pending = 0
        for instance in self.runtime.instances.values():
            if not instance.alive:
                continue
            for event, _request in instance.client._pending_acks.values():
                if not event.triggered:
                    pending += 1
        return pending

    def _status(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "virtual_now": self.sim.now,
            "injected": self.injected,
            "egressed": self.egressed,
            "in_flight": self.injected - self.egressed,
            "workload_done": self.workload_done,
            "pending_flushes": self._pending_flushes(),
            "root_log": sum(len(root.log) for root in self.runtime.roots),
            "rpc": {
                "retries": self.network.rpc_retries,
                "timeouts": self.network.rpc_timeouts,
                "gaveups": self.network.rpc_gaveups,
            },
            "store_conn": self.store_conn.counters.as_dict(),
            "bridge_tx": self.bridge_tx,
            "bridge_rx": self.bridge_rx,
        }

    def _snapshot(self) -> Dict[str, Any]:
        """Serializable inputs for the cross-process invariant checkers."""
        return {
            "prefix": self.prefix,
            "alive_instances": [
                instance_id
                for instance_id, instance in self.runtime.instances.items()
                if instance.alive
            ],
            "gaveups": {
                instance.instance_id: instance.client.stats.flushes_gave_up
                for instance in self.runtime.instances.values()
                if instance.alive
            },
            "root_logs": {
                root.name: len(root.log)
                for root in self.runtime.roots
                if root.alive
            },
            "retransmissions": sum(
                instance.client.stats.retransmissions
                for instance in self.runtime.instances.values()
                if instance.alive
            ),
        }

    def _handle_command(self, command: Dict[str, Any]) -> None:
        kind = command.get("type")
        if kind == "start":
            self.started = True
            self.control.reply(command, {"ok": True})
        elif kind == "status":
            self.control.reply(command, self._status())
        elif kind == "snapshot":
            self.control.reply(command, self._snapshot())
        elif kind == "store_recovered":
            # Deferred on purpose. Marking log entries vector-unreliable
            # lets them drain on copies-processed alone, and a drained
            # entry is pruned — which wipes the store's dedup record for
            # that clock. Any flush whose ACK died with the old store is
            # still retransmitting that very clock, and a re-apply after
            # the prune would double-count it. Only once every pending
            # flush has been re-ACKed (dedup-emulated against the replayed
            # log) is it safe to let prunes fire.
            self._store_recovered_pending = True
            self.control.reply(command, {"pending_flushes": self._pending_flushes()})
        elif kind == "shutdown":
            self.control.reply(command, {"ok": True})
            self.running = False
        else:
            self.control.reply(command, {"error": f"unknown command {kind!r}"})

    # -- main loop -----------------------------------------------------

    def run(self) -> None:
        while self.running:
            now_real = self.pacer.now_real()
            for frame in self.store_conn.pump(now_real):
                self._handle_store_frame(frame)
            for command in self.control.poll(now_real):
                self._handle_command(command)
            if self.started:
                self._inject_some()
            self.sim.run(until=max(self.sim.now, self.pacer.virtual_now()))
            self._drain_egress()
            if self._store_recovered_pending and self._pending_flushes() == 0:
                self._store_recovered_pending = False
                for root in self.runtime.roots:
                    if root.alive:
                        root.note_store_recovered()
            self._release_held_prunes()
            if self.started:
                self._inject_some()
            # flush whatever the engine emitted toward the store / fabric
            now_real = self.pacer.now_real()
            for frame in self.store_conn.pump(now_real):
                self._handle_store_frame(frame)
            for command in self.control.poll(now_real):
                self._handle_command(command)
            wait_readable(
                [self.store_conn, self.control],
                self.pacer.real_wait_for(self.sim.next_event_time()),
            )
        self._inj_fh.close()
        self._egr_fh.close()
        self.store_conn.close()
        self.control.close()


def main() -> None:
    ShardWorker(load_config()).run()


if __name__ == "__main__":
    main()
