"""The shared datastore process of the distributed shard fabric.

Hosts one real :class:`~repro.store.datastore.DatastoreInstance` — the
exact engine the in-process simulator uses, unchanged — behind a listening
socket. Shard processes bridge their store-client traffic here; replies,
commit signals, and watch callbacks flow back over the same connections.

Durability model (matches the paper's recovery assumptions): every
*mutating* inbound frame is appended to a frame write-ahead log **before**
it is dispatched into the engine. When the fabric SIGKILLs this process
and respawns it with ``recover: true``, the new process replays the log
into a fresh instance with its RPC output muted, which rebuilds ``_data``,
the ownership map, the clock-keyed dedup log, and the recorded
non-deterministic values. Replay is idempotent against torn tails: a
mutation whose frame hit the log but whose ACK never reached the client is
retransmitted by the client and suppressed by the dedup log, exactly the
emulation path of §5.3.

Fault hooks (driven by the fabric over the control channel) break *real*
sockets: ``sever`` RST-closes live shard connections, ``refuse`` makes the
listener reset every new connect for a window (a partition, from the
shard's point of view), and ``stall`` stops reading from peers while
keeping the sockets open (a half-open host).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.core.clock import clock_root, clock_sequence
from repro.dist.node import ControlLink, Pacer, load_config
from repro.dist.transport import (
    ControlFrame,
    DataFrame,
    FrameDecoder,
    Listener,
    Peer,
    data_frame,
    wait_readable,
)
from repro.simnet.engine import Simulator
from repro.simnet.network import Envelope, Link, Network
from repro.store.datastore import DatastoreInstance
from repro.store.keys import root_clock_key

#: Wire payload types whose effects change store state — these (and only
#: these) are WAL-logged. Reads and snapshots are harmless to lose.
#: Prunes are deliberately NOT logged: they only reclaim dedup-log memory,
#: and replaying one would wipe the (key, clock) dedup entry that a
#: retransmitted duplicate logged *after* it in the WAL still needs — the
#: replay would then re-apply the duplicate. Skipping them keeps replay
#: idempotent at the cost of retaining pruned entries until the next prune.
_MUTATING_TYPES = (
    "OpRequest",
    "BatchedOpRequest",
    "WriteRequest",
    "OwnerRequest",
    "BulkOwnerMove",
    "CloneRegistration",
    "TakeoverRequest",
    "WatchRequest",
    "UnwatchRequest",
    "LockReadRequest",
    "WriteUnlockRequest",
    "NonDetRequest",
)


def _is_mutating(payload: Any) -> bool:
    wire_payload = getattr(payload, "payload", None)
    return type(wire_payload).__name__ in _MUTATING_TYPES


class FrameWAL:
    """Append-only log of frames exactly as they arrived on the wire (a
    plain concatenation ``FrameDecoder().feed`` reads back), replayable
    across process death.

    No fsync: the crash model is process kill, not host power loss, and a
    torn tail (a frame cut mid-write by SIGKILL) is simply skipped on
    replay — the client never saw an ACK for it and retransmits.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.appended = 0
        self._fh = open(path, "ab")

    def append(self, frame_bytes: bytes) -> None:
        self._fh.write(frame_bytes)
        self._fh.flush()
        self.appended += 1

    def close(self) -> None:
        self._fh.close()

    @staticmethod
    def read_frames(path: str) -> List[Any]:
        if not os.path.exists(path):
            return []
        decoder = FrameDecoder()
        with open(path, "rb") as fh:
            data = fh.read()
        # feed in one chunk; an incomplete tail simply never completes
        return decoder.feed(data)


class StoreNode:
    """One store process: engine + listener + WAL + fault hooks."""

    def __init__(self, config: Dict[str, Any]) -> None:
        self.config = config
        self.name = config.get("name", "store0")
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            Link(latency_us=float(config.get("local_link_us", 2.0))),
            seed=int(config.get("seed", 0)),
        )
        self.store = DatastoreInstance(
            self.sim,
            self.network,
            self.name,
            op_service_us=float(config.get("store_op_service_us", 0.196)),
            root_endpoint="root{root_id}",
            dedup_enabled=True,
            seed=int(config.get("seed", 0)),
            inflight_limit=config.get("store_inflight_limit"),
        )
        self.pacer = Pacer(float(config.get("time_scale", 20.0)))
        self.listener = Listener(port=int(config.get("data_port", 0)))
        self.peers: List[Peer] = []
        self.routes: Dict[str, Peer] = {}
        self.wal = FrameWAL(config["wal_path"])
        self.network.default_route = self._bridge_out
        self.bridge_tx = 0
        self.bridge_rx = 0
        self.stall_until_real: Optional[float] = None
        self.running = True
        self.control = ControlLink(
            config["control_host"],
            int(config["control_port"]),
            role="store",
            name=self.name,
            seed=int(config.get("seed", 0)),
            extra_hello={"data_port": self.listener.port},
        )

    # -- bridging ------------------------------------------------------

    def _bridge_out(self, envelope: Envelope) -> bool:
        """Engine → socket: replies and signals to remote shard endpoints."""
        peer = self.routes.get(envelope.dst)
        if peer is None or not peer.alive:
            # no live route: drop, exactly like a network loss — the
            # client-side retransmission machinery owns recovery
            return False
        peer.send_obj(data_frame(envelope.src, envelope.dst, envelope.payload))
        self.bridge_tx += 1
        return True

    def _handle_peer_frame(self, peer: Peer, frame: Any) -> None:
        if isinstance(frame, ControlFrame):
            if frame.body.get("type") == "hello":
                for endpoint_name in frame.body.get("names", ()):
                    self.routes[endpoint_name] = peer
            return
        if not isinstance(frame, DataFrame):
            return
        self.routes[frame.src] = peer  # passive route learning
        if _is_mutating(frame.payload):
            self.wal.append(frame.raw)  # the bytes received, not a re-encoding
        self.bridge_rx += 1
        self.network.send(frame.src, frame.dst, frame.payload)

    # -- recovery ------------------------------------------------------

    def recover(self) -> int:
        """Replay the WAL into the fresh engine with output muted."""
        frames = FrameWAL.read_frames(self.wal.path)
        self.store.endpoint.mute_output = True
        saved_limit = self.store.inflight_limit
        self.store.inflight_limit = None
        for frame in frames:
            if isinstance(frame, DataFrame):
                self.network.send(frame.src, frame.dst, frame.payload)
        self.sim.run()
        self.store.endpoint.mute_output = False
        self.store.inflight_limit = saved_limit
        return len(frames)

    # -- control commands ----------------------------------------------

    def _clock_floor(self, root_id: int) -> int:
        """Highest clock sequence this store has any trace of for a root.

        A restarted shard resumes its clock above this floor so reissued
        clocks can never collide with dedup-log entries left by its dead
        incarnation (the distributed analogue of footnote 5's skip-ahead).
        """
        floor = 0
        persisted = self.store._data.get(root_clock_key(root_id))
        if isinstance(persisted, int):
            floor = max(floor, persisted)
        for clock in self.store._log_clocks:
            if clock_root(clock) == root_id:
                floor = max(floor, clock_sequence(clock))
        for per_key in self.store._ts.values():
            for clock in per_key.values():
                if clock_root(clock) == root_id:
                    floor = max(floor, clock_sequence(clock))
        for clock, _purpose in self.store._nondet:
            if clock_root(clock) == root_id:
                floor = max(floor, clock_sequence(clock))
        return floor

    def _snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "data": dict(self.store._data),
            "owners": dict(self.store._owners),
            # one per logged (key, clock, seq) identity
            "update_log_entries": len(self.store._update_log),
            "stats": {
                "ops_applied": self.store.stats.ops_applied,
                "ops_emulated": self.store.stats.ops_emulated,
                "overload_rejections": self.store.stats.overload_rejections,
            },
        }

    def _counters(self) -> Dict[str, Any]:
        totals: Dict[str, int] = {}
        for peer in self.peers:
            for field_name, value in peer.counters.as_dict().items():
                totals[field_name] = totals.get(field_name, 0) + value
        return {
            "peer_totals": totals,
            "accepted": self.listener.accepted,
            "refused": self.listener.refused,
            "bridge_tx": self.bridge_tx,
            "bridge_rx": self.bridge_rx,
            "wal_appended": self.wal.appended,
        }

    def _handle_command(self, command: Dict[str, Any]) -> None:
        kind = command.get("type")
        now_real = self.pacer.now_real()
        if kind == "status":
            self.control.reply(
                command,
                {
                    "pid": os.getpid(),
                    "virtual_now": self.sim.now,
                    "counters": self._counters(),
                    "stats": self._snapshot()["stats"],
                },
            )
        elif kind == "snapshot":
            self.control.reply(command, self._snapshot())
        elif kind == "clock_floor":
            self.control.reply(
                command, {"floor": self._clock_floor(int(command["root_id"]))}
            )
        elif kind == "sever":
            severed = 0
            for peer in self.peers:
                if peer.alive:
                    peer.close(reset=True)
                    severed += 1
            self.control.reply(command, {"severed": severed})
        elif kind == "refuse":
            self.listener.refuse_until_real = now_real + float(
                command.get("duration_s", 0.3)
            )
            self.control.reply(command, {"until": self.listener.refuse_until_real})
        elif kind == "stall":
            self.stall_until_real = now_real + float(command.get("duration_s", 0.3))
            stalled = 0
            for peer in self.peers:
                if peer.alive:
                    peer.stalled = True
                    stalled += 1
            self.control.reply(command, {"stalled": stalled})
        elif kind == "shutdown":
            self.control.reply(command, {"ok": True})
            self.running = False
        else:
            self.control.reply(command, {"error": f"unknown command {kind!r}"})

    # -- main loop -----------------------------------------------------

    def _end_stall(self) -> None:
        """Stall window over: RST every stalled peer so clients reconnect."""
        for peer in self.peers:
            if peer.stalled:
                peer.stalled = False
                if peer.alive:
                    peer.close(reset=True)
        self.stall_until_real = None

    def run(self) -> None:
        if self.config.get("recover"):
            replayed = self.recover()
            self.control.set_hello_extra(recovered_frames=replayed)
        while self.running:
            now_real = self.pacer.now_real()
            if self.stall_until_real is not None and now_real >= self.stall_until_real:
                self._end_stall()
            self.peers.extend(self.listener.accept_ready(now_real))
            for peer in self.peers:
                for frame in peer.pump():
                    self._handle_peer_frame(peer, frame)
            for command in self.control.poll(now_real):
                self._handle_command(command)
            self.sim.run(until=max(self.sim.now, self.pacer.virtual_now()))
            # flush anything the engine just emitted (and handle any command
            # that raced in — poll() results must never be discarded)
            for peer in self.peers:
                for frame in peer.pump():
                    self._handle_peer_frame(peer, frame)
            for command in self.control.poll(self.pacer.now_real()):
                self._handle_command(command)
            self.peers = [p for p in self.peers if p.alive or p.stalled]
            # stalled peers are deliberately not waited on: their readable
            # bytes must sit unread for the whole half-open window
            wait_on: List[Any] = [
                self.listener,
                self.control,
                *[p for p in self.peers if not p.stalled],
            ]
            wait_readable(wait_on, self.pacer.real_wait_for(self.sim.next_event_time()))
        self.control.close()
        self.listener.close()
        self.wal.close()


def main() -> None:
    StoreNode(load_config()).run()


if __name__ == "__main__":
    main()
