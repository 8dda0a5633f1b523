"""The ``dist_1shard`` workload: one shard and one store node, as real
processes, over **host loopback** TCP (no real link is involved).

The fabric generates its own traffic from the seed it is given: a closed
loop with 16 packets in flight per shard. ``Fabric.run()`` is the only
public way to execute a scenario, so the harness observes it from outside:

* a watcher thread polls (every <= 5 ms) the children's HELLOs, the
  injection and egress ledgers in the workdir, and ``/proc/<pid>/stat``
  of ``fabric.children``;
* ``fabric.call`` is wrapped to timestamp the control commands, whose
  order marks the quiesce / verify / shutdown boundaries, and to keep the
  last status reply of each child.

Self time inside the children is out of scope here (a later repro.obs
issue); their cost shows as CPU per packet per process.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.dist.fabric import DIST_SCENARIOS, Fabric

from _env import OUT_DIR
from calibrate import spin
from spans import SpanLog

N_PACKETS = 4000
N_FLOWS = 16
# Real microseconds per virtual microsecond. The fabric's default of 20 puts
# the store client's 1000 us flush-retransmit timer at 20 ms real, which is
# below what a process can wait for a core when shard, store node and
# coordinator share 2 CPUs: measured here, 3 runs in 10 then fell into a
# retransmission storm and 1 in 10 failed its invariants (flushes gave up).
# At 60 the timer (60 ms) stays clear of scheduling delay, no run stormed,
# and throughput is unchanged because the loop is CPU-bound, not paced.
TIME_SCALE = 60.0
#: More than this many flush retransmissions per packet is the storm mode
#: of the bistable fabric (quiet runs stay below 0.5).
STORM_RETRANSMISSIONS_PER_PKT = 1.0
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` from /proc (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def _peak_rss_mib(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class _LineCounter:
    """Counts complete lines appended to a file, reading only new bytes."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.lines = 0
        self._offset = 0

    def poll(self) -> int:
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except OSError:
            return self.lines
        self._offset += len(data)
        self.lines += data.count(b"\n")
        return self.lines


@dataclass
class _Mark:
    """Watcher state at one boundary of the traffic window."""

    at: float
    harness_cpu: float
    child_cpu: Dict[str, float]


class _Watcher(threading.Thread):
    """Observes one fabric run from outside; see the module docstring."""

    POLL_S = 0.004
    SPIN_EVERY_S = 0.25  # calibration spins inside the traffic window: ~4 % of one core

    def __init__(self, fabric: Fabric, n_packets: int) -> None:
        super().__init__(name="perf-fabric-watcher", daemon=True)
        self.fabric = fabric
        self.n_packets = n_packets
        self.spawned_at: Optional[float] = None
        self.first_injection: Optional[_Mark] = None
        self.last_egress: Optional[_Mark] = None
        self.child_rss_mib: Dict[str, float] = {}
        self.spins: List[float] = []  # host speed seen during the traffic window
        self._expected = ["store0"] + [f"s{i}" for i in range(fabric.n_shards)]
        self._injected = [
            _LineCounter(os.path.join(fabric.workdir, f"s{i}.inj")) for i in range(fabric.n_shards)
        ]
        self._egressed = [
            _LineCounter(os.path.join(fabric.workdir, f"s{i}.egr")) for i in range(fabric.n_shards)
        ]
        self._done = threading.Event()

    def stop(self) -> None:
        self._done.set()
        self.join()

    def _mark(self, now: float) -> _Mark:
        cpu = {}
        for name, child in list(self.fabric.children.items()):
            if child.proc is not None:
                cpu[name] = _cpu_seconds(child.proc.pid)
        return _Mark(now, time.process_time(), cpu)

    def run(self) -> None:
        total = self.n_packets * self.fabric.n_shards
        while not self._done.is_set():
            now = time.perf_counter()
            children = self.fabric.children
            if self.spawned_at is None:
                if all(name in children and children[name].hellos for name in self._expected):
                    self.spawned_at = now
            elif self.first_injection is None:
                if any(counter.poll() for counter in self._injected):
                    self.first_injection = self._mark(now)
                    self.spins.append(spin())
            elif self.last_egress is None:
                if sum(counter.poll() for counter in self._egressed) >= total:
                    self.last_egress = self._mark(now)
                    self.spins.append(spin())
                    for name, child in list(children.items()):
                        if child.proc is not None:
                            self.child_rss_mib[name] = _peak_rss_mib(child.proc.pid)
                elif now - self.first_injection.at >= self.SPIN_EVERY_S * len(self.spins):
                    self.spins.append(spin())
            self._done.wait(self.POLL_S)


@dataclass
class FabricRound:
    """What one observed fabric run produced."""

    packets: int
    failed: int
    problems: List[str]
    spawn_s: float = 0.0
    traffic_s: float = 0.0
    cpu_s: float = 0.0  # every process, inside the traffic window
    children_rss_mib: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    storm: bool = False
    spins: List[float] = field(default_factory=list)  # see calibrate.py
    wal: bytes = b""


def run_round(seed: int, index: int, quick: bool, spans: SpanLog, keep_wal: bool) -> FabricRound:
    """One no-fault fabric run with 1 shard, observed from outside."""
    n_packets = N_PACKETS // 10 if quick else N_PACKETS
    workdir = os.path.join(OUT_DIR, f"fabric-{os.getpid()}-{index}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    calls: List[tuple] = []  # (start, child, command type)
    last_status: Dict[str, Dict[str, Any]] = {}
    watcher = None
    try:
        started = time.perf_counter()
        fabric = Fabric(
            DIST_SCENARIOS["no-fault"],
            seed,
            n_shards=1,
            n_packets=n_packets,
            n_flows=N_FLOWS,
            time_scale=TIME_SCALE,
            workdir=workdir,
        )
        inner_call = fabric.call

        def observed_call(name, command, timeout_s=10.0):
            calls.append((time.perf_counter(), name, command.get("type")))
            reply = inner_call(name, command, timeout_s)
            if command.get("type") == "status":
                last_status[name] = reply
            return reply

        fabric.call = observed_call  # type: ignore[method-assign]
        watcher = _Watcher(fabric, n_packets)
        watcher.start()
        outcome = fabric.run()
        ended = time.perf_counter()
    finally:
        if watcher is not None:
            watcher.stop()
        wal = b""
        if keep_wal:
            try:
                with open(os.path.join(workdir, "store0.wal"), "rb") as fh:
                    wal = fh.read()
            except OSError:
                pass
        shutil.rmtree(workdir, ignore_errors=True)

    shard = outcome.per_shard.get("s0", {})
    egressed = int(shard.get("egressed", 0))
    problems = [f"{v.invariant}: {v.detail}" for v in outcome.violations]
    if outcome.infra_error:
        problems.append(f"fabric: {outcome.infra_error}")
    store_counters = outcome.evidence.get("store_counters", {})
    shard_conn = outcome.evidence.get("shard_conn", {}).get("s0", {})
    peer_totals = store_counters.get("peer_totals", {})
    socket_faults = sum(
        counters.get(key, 0)
        for counters in (shard_conn, peer_totals)
        for key in ("resets", "reconnects", "connect_failures", "tx_dropped")
    ) + store_counters.get("refused", 0)
    if socket_faults:
        problems.append(f"{socket_faults} socket faults on a no-fault run")
    start, end = watcher.first_injection, watcher.last_egress
    if outcome.ok and (watcher.spawned_at is None or start is None or end is None):
        problems.append("watcher missed a phase boundary")
    failed = n_packets - egressed
    if problems and not failed:
        failed = min(n_packets, len(problems))
    result = FabricRound(packets=n_packets, failed=failed, problems=problems, wal=wal)
    if watcher.spawned_at is None or start is None or end is None:
        return result

    quiesce_end = next((at for at, name, _kind in calls if name == "store0"), ended)
    shutdown_at = next((at for at, _name, kind in calls if kind == "shutdown"), ended)
    round_span = spans.add("round", started, ended)
    spans.add("spawn", started, watcher.spawned_at, parent=round_span)
    spans.add("traffic", start.at, end.at, parent=round_span)
    spans.add("quiesce", end.at, quiesce_end, parent=round_span)
    spans.add("verify", quiesce_end, shutdown_at, parent=round_span)
    spans.add("shutdown", shutdown_at, ended, parent=round_span)

    retransmissions = int(shard.get("retransmissions", 0))
    frames_sent = shard_conn.get("frames_sent", 0)
    frames = frames_sent + shard_conn.get("frames_received", 0)
    wire_bytes = shard_conn.get("bytes_sent", 0) + shard_conn.get("bytes_received", 0)
    rpc_retries = last_status.get("s0", {}).get("rpc", {}).get("retries", 0)
    result.spins = watcher.spins
    result.spawn_s = watcher.spawned_at - started
    result.traffic_s = end.at - start.at
    child_cpu_s = {
        name: end.child_cpu.get(name, 0.0) - start.child_cpu.get(name, 0.0)
        for name in end.child_cpu
    }
    # the coordinator's CPU, less the calibration spins it ran inside the window
    # (the last spin follows the end mark)
    coordinator_cpu_s = end.harness_cpu - start.harness_cpu - sum(watcher.spins[:-1])
    result.cpu_s = coordinator_cpu_s + sum(child_cpu_s.values())
    result.children_rss_mib = sum(watcher.child_rss_mib.values())
    result.storm = retransmissions > STORM_RETRANSMISSIONS_PER_PKT * n_packets
    result.counts = {
        "dist.transport.frames_per_pkt": frames / n_packets,
        "dist.transport.bytes_per_pkt": wire_bytes / n_packets,
        "dist.transport.socket_faults": socket_faults,
        "dist.shard.cpu_us_per_pkt": child_cpu_s.get("s0", 0.0) / n_packets * 1e6,
        "dist.shard.flush_retransmissions_per_kpkt": retransmissions * 1000.0 / n_packets,
        "dist.shard.rpc_retries_per_kpkt": rpc_retries * 1000.0 / n_packets,
        "dist.store_node.cpu_us_per_pkt": child_cpu_s.get("store0", 0.0) / n_packets * 1e6,
        "dist.store_node.wal_appends_per_pkt": store_counters.get("wal_appended", 0) / n_packets,
        "dist.store_node.redundant_frame_ratio": retransmissions / frames_sent if frames_sent else 0.0,
        "dist.fabric.quiesce_tail_s": quiesce_end - end.at,
        "dist.fabric.verify_s": shutdown_at - quiesce_end,
    }
    return result
