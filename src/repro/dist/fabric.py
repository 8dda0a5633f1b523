"""The distributed-fabric coordinator: spawn, break, restart, check.

:func:`run_dist_scenario` executes one (scenario, seed) pair:

1. spawn one store-node process and N shard processes (real ``Popen``
   children, real localhost TCP between them),
2. start traffic, wait for ~30% of it to egress, then inject the
   scenario's fault — ``SIGKILL`` a shard, ``SIGKILL`` the store (respawned
   with WAL recovery on the same port), sever + refuse connections
   (partition), or stall reads (half-open) — and restart/heal,
3. poll shards to quiescence (workload done, nothing in flight, no
   pending flushes, root logs drained, egress stable),
4. collect per-shard snapshots, store snapshot, and socket-level evidence,
   then run the invariant checkers *across process boundaries*: each
   shard's egress ledger and store-side state slice are compared with the
   ideal chain (:func:`repro.analysis.ideal.ideal_run` on the shard's
   chain) fed exactly the packets the shard's injection ledger proves
   were injected.

The acceptance bar this module exists to clear: every fault scenario
kills a real OS process or breaks a real socket, witnessed by distinct
PIDs across incarnations and non-zero transport fault counters — and the
invariants still hold.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import repro
from repro.analysis.ideal import ideal_run
from repro.chaos.invariants import (
    InvariantViolation,
    check_egress_complete,
    check_exactly_once,
    check_flow_ordering,
    check_gaveup_counts,
    check_log_lengths,
    check_loss_free_state,
    check_ownership_map,
)
from repro.dist.shard import INJECT_WINDOW, build_shard_chain, read_ledger, shard_packet
from repro.dist.transport import ControlFrame, Listener, Peer
from repro.store.keys import is_internal_key

#: How long a partition refuses reconnects, or a stalled store stops reading.
FAULT_WINDOW_S = 0.25


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


@dataclass
class DistScenario:
    """One fault pattern and the invariant profile it must satisfy."""

    name: str
    description: str
    fault: str  # "none" | "shard_kill" | "store_kill" | "partition" | "stall"
    #: counters may trail the ideal chain's by this many increments (bounded,
    #: provable loss: the injection window plus flushes the dead client
    #: never got to retransmit), never exceed it
    loss_allowance: int = 0
    #: evidence the scenario must produce to count as "really happened"
    requires_distinct_pids: Optional[str] = None  # child name whose pid must change
    requires_socket_faults: bool = False


DIST_SCENARIOS: Dict[str, DistScenario] = {
    spec.name: spec
    for spec in (
        DistScenario(
            "no-fault",
            "clean distributed run; verdicts must match the in-process simulator",
            fault="none",
        ),
        DistScenario(
            "shard-kill",
            "SIGKILL one shard mid-traffic; respawn resumes its flows past "
            "the injection ledger with a clock floor from the store",
            fault="shard_kill",
            loss_allowance=3 * INJECT_WINDOW,
            requires_distinct_pids="s0",
        ),
        DistScenario(
            "store-kill",
            "SIGKILL the store mid-traffic; respawn replays the frame WAL "
            "on the same port; clients retransmit into the dedup log",
            fault="store_kill",
            requires_distinct_pids="store0",
        ),
        DistScenario(
            "partition",
            "sever shard->store connections and refuse reconnects for a "
            "window, then heal; retransmission absorbs the gap",
            fault="partition",
            requires_socket_faults=True,
        ),
        DistScenario(
            "stall",
            "half-open store: stop reading shard connections for a window, "
            "then reset; clients see silence, then reconnect",
            fault="stall",
            requires_socket_faults=True,
        ),
    )
}


@dataclass
class DistOutcome:
    """Everything one fabric run produced, JSON-serializable."""

    scenario: str
    seed: int
    violations: List[InvariantViolation] = field(default_factory=list)
    infra_error: Optional[str] = None
    evidence: Dict[str, Any] = field(default_factory=dict)
    per_shard: Dict[str, Any] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.infra_error is None and not self.violations

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
            "infra_error": self.infra_error,
            "evidence": self.evidence,
            "per_shard": self.per_shard,
            "duration_s": round(self.duration_s, 3),
        }


# ---------------------------------------------------------------------------
# child-process bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Child:
    role: str
    name: str
    proc: Optional[subprocess.Popen] = None
    peer: Optional[Peer] = None
    hellos: List[Dict[str, Any]] = field(default_factory=list)
    pids: List[int] = field(default_factory=list)

    @property
    def hello(self) -> Optional[Dict[str, Any]]:
        return self.hellos[-1] if self.hellos else None


class FabricError(RuntimeError):
    """Infrastructure failure: the fabric itself (not an invariant) broke."""


class Fabric:
    """Process lifecycle + control plane for one scenario run."""

    def __init__(
        self,
        scenario: DistScenario,
        seed: int,
        n_shards: int = 2,
        n_packets: int = 48,
        n_flows: int = 4,
        time_scale: float = 20.0,
        workdir: Optional[str] = None,
        deadline_s: float = 90.0,
        keep_workdir: bool = False,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.n_shards = n_shards
        self.n_packets = n_packets
        self.n_flows = n_flows
        self.time_scale = time_scale
        self.deadline_s = deadline_s
        self.keep_workdir = keep_workdir
        self._own_workdir = workdir is None
        self.workdir = workdir or tempfile.mkdtemp(prefix="repro-dist-")
        self.listener = Listener(port=0)
        self.peers: List[Peer] = []
        self.children: Dict[str, Child] = {}
        self._replies: Dict[int, Dict[str, Any]] = {}
        self._cmd_seq = 0
        self._t0 = time.monotonic()
        #: runtime knobs every shard runs with; the longer retransmit
        #: period widens the real-time budget (100 flush retries x 1ms
        #: virtual x scale 20 = 2s real) that must absorb a store respawn
        #: or fault window
        self.runtime_overrides = {"retransmit_timeout_us": 1000.0}

    # -- low-level control plane ---------------------------------------

    def _now(self) -> float:
        return time.monotonic() - self._t0

    def _pump(self, wait_s: float = 0.01) -> None:
        deadline = time.monotonic() + wait_s
        while True:
            self.peers.extend(self.listener.accept_ready(self._now()))
            for peer in self.peers:
                for frame in peer.pump():
                    self._route_frame(peer, frame)
            self.peers = [p for p in self.peers if p.alive]
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(0.005, remaining))

    def _route_frame(self, peer: Peer, frame: Any) -> None:
        if not isinstance(frame, ControlFrame):
            return
        body = frame.body
        kind = body.get("type")
        if kind == "hello":
            child = self.children.get(body.get("name", ""))
            if child is not None:
                child.peer = peer
                child.hellos.append(body)
                pid = body.get("pid")
                if isinstance(pid, int) and pid not in child.pids:
                    child.pids.append(pid)
        elif kind == "reply":
            cmd_id = body.get("cmd_id")
            if isinstance(cmd_id, int):
                self._replies[cmd_id] = body.get("body") or {}

    def call(
        self, name: str, command: Dict[str, Any], timeout_s: float = 10.0
    ) -> Dict[str, Any]:
        """Send a control command to a child and wait for its reply."""
        child = self.children[name]
        if child.peer is None or not child.peer.alive:
            raise FabricError(f"no live control connection to {name}")
        self._cmd_seq += 1
        cmd_id = self._cmd_seq
        child.peer.send_obj(ControlFrame(dict(command, cmd_id=cmd_id)))
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            self._pump(0.01)
            if cmd_id in self._replies:
                return self._replies.pop(cmd_id)
        raise FabricError(f"{name} did not answer {command.get('type')!r}")

    # -- spawning ------------------------------------------------------

    def _spawn(self, role: str, name: str, config: Dict[str, Any]) -> Child:
        child = self.children.setdefault(name, Child(role=role, name=name))
        module = "repro.dist.store_node" if role == "store" else "repro.dist.shard"
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        log = open(os.path.join(self.workdir, f"{name}.log"), "ab")
        child.proc = subprocess.Popen(
            [sys.executable, "-m", module, json.dumps(config)],
            stdout=log,
            stderr=log,
            env=env,
        )
        log.close()
        return child

    def _wait_for_hello(self, name: str, generation: int, timeout_s: float = 20.0) -> Dict[str, Any]:
        deadline = time.monotonic() + timeout_s
        child = self.children[name]
        while time.monotonic() < deadline:
            self._pump(0.02)
            if len(child.hellos) >= generation:
                return child.hellos[generation - 1]
            if child.proc is not None and child.proc.poll() is not None:
                raise FabricError(
                    f"{name} exited with {child.proc.returncode} before hello "
                    f"(see {self.workdir}/{name}.log)"
                )
        raise FabricError(f"timed out waiting for hello from {name}")

    def _store_config(self, recover: bool, data_port: int) -> Dict[str, Any]:
        return {
            "name": "store0",
            "control_host": "127.0.0.1",
            "control_port": self.listener.port,
            "data_port": data_port,
            "seed": self.seed,
            "time_scale": self.time_scale,
            "wal_path": os.path.join(self.workdir, "store0.wal"),
            "recover": recover,
        }

    def _shard_config(
        self, index: int, resume_floor: Optional[int], store_port: int
    ) -> Dict[str, Any]:
        prefix = f"s{index}"
        return {
            "prefix": prefix,
            "shard_index": index,
            "seed": self.seed + index,
            "control_host": "127.0.0.1",
            "control_port": self.listener.port,
            "store_host": "127.0.0.1",
            "store_port": store_port,
            "store_name": "store0",
            "n_packets": self.n_packets,
            "n_flows": self.n_flows,
            "time_scale": self.time_scale,
            "injection_ledger": os.path.join(self.workdir, f"{prefix}.inj"),
            "egress_ledger": os.path.join(self.workdir, f"{prefix}.egr"),
            "root_clock_resume": resume_floor,
            "autostart": resume_floor is not None,  # respawns resume at once
            "runtime_overrides": self.runtime_overrides,
        }

    # -- scenario steps ------------------------------------------------

    def _shard_names(self) -> List[str]:
        return [f"s{i}" for i in range(self.n_shards)]

    def _statuses(self) -> Dict[str, Dict[str, Any]]:
        return {
            name: self.call(name, {"type": "status"}) for name in self._shard_names()
        }

    def _total_egressed(self) -> int:
        total = 0
        for name in self._shard_names():
            total += len(read_ledger(os.path.join(self.workdir, f"{name}.egr")))
        return total

    def _wait_for_progress(self, fraction: float, timeout_s: float = 45.0) -> None:
        target = max(1, int(fraction * self.n_shards * self.n_packets))
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self._total_egressed() >= target:
                return
            self._pump(0.05)
        raise FabricError(
            f"traffic never reached {target} egressed packets "
            f"(got {self._total_egressed()})"
        )

    def _inject_fault(self, store_port: int) -> None:
        fault = self.scenario.fault
        window = FAULT_WINDOW_S
        if fault == "none":
            return
        if fault == "shard_kill":
            victim = self.children["s0"]
            assert victim.proc is not None
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.wait()
            # clock floor: highest sequence the store can prove the dead
            # incarnation's root reached — the respawn resumes above it
            floor = int(
                self.call("store0", {"type": "clock_floor", "root_id": 0})["floor"]
            )
            generation = len(victim.hellos) + 1
            self._spawn("shard", "s0", self._shard_config(0, floor, store_port))
            self._wait_for_hello("s0", generation)
        elif fault == "store_kill":
            victim = self.children["store0"]
            assert victim.proc is not None
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.wait()
            generation = len(victim.hellos) + 1
            # same port: shard Connections reconnect to the recovered store
            self._spawn("store", "store0", self._store_config(True, store_port))
            self._wait_for_hello("store0", generation)
            for name in self._shard_names():
                self.call(name, {"type": "store_recovered"})
        elif fault == "partition":
            self.call("store0", {"type": "refuse", "duration_s": window})
            self.call("store0", {"type": "sever"})
            time.sleep(window + 0.1)
            self._pump(0.1)
            # commit signals dropped inside the window are gone for good
            # (one-way, unretransmitted): release the parity requirement
            for name in self._shard_names():
                self.call(name, {"type": "store_recovered"})
        elif fault == "stall":
            self.call("store0", {"type": "stall", "duration_s": window})
            time.sleep(window + 0.1)
            self._pump(0.1)
            for name in self._shard_names():
                self.call(name, {"type": "store_recovered"})
        else:  # pragma: no cover - registry is closed
            raise FabricError(f"unknown fault {fault!r}")

    def _wait_for_quiescence(self, timeout_s: float) -> Dict[str, Dict[str, Any]]:
        deadline = time.monotonic() + timeout_s
        last_egressed = -1
        while time.monotonic() < deadline:
            statuses = self._statuses()
            settled = all(
                s["workload_done"]
                and s["in_flight"] == 0
                and s["pending_flushes"] == 0
                and s["root_log"] == 0
                for s in statuses.values()
            )
            egressed = self._total_egressed()
            if settled and egressed == last_egressed:
                return statuses
            last_egressed = egressed if settled else -1
            self._pump(0.15)
        raise FabricError(
            "quiescence not reached: "
            + json.dumps({k: v for k, v in self._statuses().items()})[:500]
        )

    # -- verification --------------------------------------------------

    def _check_shard(
        self,
        index: int,
        store_snapshot: Dict[str, Any],
        shard_snapshot: Dict[str, Any],
    ) -> List[InvariantViolation]:
        prefix = f"s{index}"
        allowance = self.scenario.loss_allowance
        reference = ideal_run(
            build_shard_chain(prefix),
            (
                shard_packet(int(entry["flow"]), entry["payload"])
                for entry in read_ledger(os.path.join(self.workdir, f"{prefix}.inj"))
            ),
        )
        egress = [
            (entry["payload"], int(entry["clock"]))
            for entry in read_ledger(os.path.join(self.workdir, f"{prefix}.egr"))
        ]
        dist_state = {
            key: value
            for key, value in store_snapshot["data"].items()
            if key.startswith(f"{prefix}-")
            and not is_internal_key(key)
        }
        owners = {
            key: owner
            for key, owner in store_snapshot["owners"].items()
            if key.startswith(f"{prefix}-")
        }
        violations: List[InvariantViolation] = []
        violations += check_exactly_once(egress)
        violations += check_flow_ordering(egress)
        violations += check_egress_complete(egress, reference.egress, allowance)
        violations += check_loss_free_state(dist_state, reference.state, allowance)
        violations += check_ownership_map(
            owners, shard_snapshot["alive_instances"], store_name="store0"
        )
        violations += check_gaveup_counts(shard_snapshot["gaveups"])
        violations += check_log_lengths(shard_snapshot["root_logs"])
        return violations

    def _check_evidence(
        self,
        statuses: Dict[str, Dict[str, Any]],
        store_status: Dict[str, Any],
    ) -> Tuple[Dict[str, Any], List[InvariantViolation]]:
        evidence: Dict[str, Any] = {
            "pids": {name: child.pids for name, child in self.children.items()},
            "store_counters": store_status.get("counters", {}),
            "shard_conn": {
                name: status.get("store_conn", {}) for name, status in statuses.items()
            },
        }
        problems: List[InvariantViolation] = []
        needs_pid = self.scenario.requires_distinct_pids
        if needs_pid is not None:
            pids = self.children[needs_pid].pids
            if len(set(pids)) < 2:
                problems.append(
                    InvariantViolation(
                        "fault-evidence",
                        f"{needs_pid} was supposed to be killed and respawned "
                        f"but its pid history is {pids}",
                    )
                )
        if self.scenario.requires_socket_faults:
            faults = 0
            for status in statuses.values():
                conn = status.get("store_conn", {})
                faults += conn.get("resets", 0) + conn.get("connect_failures", 0)
            store_counters = store_status.get("counters", {})
            faults += store_counters.get("refused", 0)
            if faults == 0:
                problems.append(
                    InvariantViolation(
                        "fault-evidence",
                        "scenario requires broken sockets but no resets, "
                        "connect failures, or refused connects were counted",
                    )
                )
        evidence["socket_faults"] = {
            name: {
                "resets": status.get("store_conn", {}).get("resets", 0),
                "reconnects": status.get("store_conn", {}).get("reconnects", 0),
                "connect_failures": status.get("store_conn", {}).get(
                    "connect_failures", 0
                ),
            }
            for name, status in statuses.items()
        }
        return evidence, problems

    # -- lifecycle -----------------------------------------------------

    def _shutdown_children(self) -> None:
        for child in self.children.values():
            if child.proc is None or child.proc.poll() is not None:
                continue
            try:
                if child.peer is not None and child.peer.alive:
                    self.call(child.name, {"type": "shutdown"}, timeout_s=2.0)
            except FabricError:
                pass
        deadline = time.monotonic() + 3.0
        for child in self.children.values():
            if child.proc is None:
                continue
            while child.proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            if child.proc.poll() is None:
                child.proc.kill()
                child.proc.wait()

    def run(self) -> DistOutcome:
        started = time.monotonic()
        outcome = DistOutcome(scenario=self.scenario.name, seed=self.seed)
        try:
            self._spawn("store", "store0", self._store_config(False, 0))
            store_hello = self._wait_for_hello("store0", 1)
            store_port = int(store_hello["data_port"])
            for index in range(self.n_shards):
                self._spawn(
                    "shard", f"s{index}", self._shard_config(index, None, store_port)
                )
            for index in range(self.n_shards):
                self._wait_for_hello(f"s{index}", 1)
            for name in self._shard_names():
                self.call(name, {"type": "start"})

            if self.scenario.fault != "none":
                self._wait_for_progress(0.3)
                self._inject_fault(store_port)

            statuses = self._wait_for_quiescence(self.deadline_s)
            store_status = self.call("store0", {"type": "status"})
            store_snapshot = self.call("store0", {"type": "snapshot"})
            shard_snapshots = {
                name: self.call(name, {"type": "snapshot"})
                for name in self._shard_names()
            }

            evidence, problems = self._check_evidence(statuses, store_status)
            outcome.evidence = evidence
            outcome.violations.extend(problems)
            for index in range(self.n_shards):
                shard_violations = self._check_shard(
                    index, store_snapshot, shard_snapshots[f"s{index}"]
                )
                outcome.violations.extend(shard_violations)
                outcome.per_shard[f"s{index}"] = {
                    "injected": len(
                        read_ledger(os.path.join(self.workdir, f"s{index}.inj"))
                    ),
                    "egressed": len(
                        read_ledger(os.path.join(self.workdir, f"s{index}.egr"))
                    ),
                    "violations": len(shard_violations),
                    "retransmissions": shard_snapshots[f"s{index}"].get(
                        "retransmissions", 0
                    ),
                }
        except FabricError as exc:
            outcome.infra_error = str(exc)
        finally:
            try:
                self._shutdown_children()
            finally:
                self.listener.close()
                if self._own_workdir and not self.keep_workdir:
                    shutil.rmtree(self.workdir, ignore_errors=True)
        outcome.duration_s = time.monotonic() - started
        return outcome


def run_dist_scenario(
    scenario_name: str,
    seed: int,
    n_shards: int = 2,
    n_packets: int = 48,
    n_flows: int = 4,
    time_scale: float = 20.0,
    deadline_s: float = 90.0,
    workdir: Optional[str] = None,
    keep_workdir: bool = False,
) -> DistOutcome:
    """Run one (scenario, seed) pair end to end; see module docstring."""
    scenario = DIST_SCENARIOS[scenario_name]
    fabric = Fabric(
        scenario,
        seed,
        n_shards=n_shards,
        n_packets=n_packets,
        n_flows=n_flows,
        time_scale=time_scale,
        deadline_s=deadline_s,
        workdir=workdir,
        keep_workdir=keep_workdir,
    )
    return fabric.run()


def main() -> None:  # pragma: no cover - debug entry point
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scenario", choices=sorted(DIST_SCENARIOS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--packets", type=int, default=48)
    parser.add_argument("--keep-workdir", action="store_true")
    args = parser.parse_args()
    outcome = run_dist_scenario(
        args.scenario,
        args.seed,
        n_shards=args.shards,
        n_packets=args.packets,
        keep_workdir=args.keep_workdir,
    )
    print(json.dumps(outcome.as_dict(), indent=2))
    raise SystemExit(0 if outcome.ok else 1)


if __name__ == "__main__":
    main()
