"""Fabric smoke tests: real child processes, real sockets, real SIGKILL.

The heavy sweep lives in ``tools/campaign.py dist`` (CI's dist-smoke job);
these tests pin the fabric's contract at the smallest useful scale — a
clean distributed run, one kill-and-respawn run and one orphaned child —
so a regression in process spawning, bridging, recovery, or the
cross-process checkers fails fast inside the tier-1 suite.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import repro
from repro.dist.fabric import DIST_SCENARIOS, run_dist_scenario
from repro.dist.transport import DataBatch, FrameDecoder, encode_frame


def test_scenario_table_is_complete():
    assert set(DIST_SCENARIOS) == {
        "no-fault",
        "shard-kill",
        "store-kill",
        "partition",
        "stall",
    }
    for spec in DIST_SCENARIOS.values():
        if spec.fault != "none":
            assert spec.requires_distinct_pids or spec.requires_socket_faults


def test_no_fault_run_is_clean_and_really_distributed(tmp_path):
    outcome = run_dist_scenario(
        "no-fault", 3, n_shards=2, n_packets=24, n_flows=3, workdir=str(tmp_path)
    )
    assert outcome.infra_error is None
    assert outcome.violations == [], outcome.violations
    pids = outcome.evidence["pids"]
    # three real OS processes, all distinct
    assert set(pids) == {"store0", "s0", "s1"}
    all_pids = [pid for history in pids.values() for pid in history]
    assert len(all_pids) == len(set(all_pids)) == 3
    # traffic actually crossed the sockets
    totals = outcome.evidence["store_counters"]["peer_totals"]
    assert totals["frames_received"] > 0 and totals["frames_sent"] > 0
    # the store node folded commit signals toward each shard's root
    folded = outcome.evidence["store_counters"]["folded"]
    assert folded.get("root0", 0) > 0 and folded.get("root1", 0) > 0, folded
    for shard in ("s0", "s1"):
        assert outcome.per_shard[shard]["egressed"] == 24
    # the WAL contract the benchmark's codec loops rely on: store0.wal is a
    # feed-readable run of batch frames, each re-encoding to the bytes logged
    with open(tmp_path / "store0.wal", "rb") as fh:
        logged = FrameDecoder().feed(fh.read())
    assert logged and all(type(batch) is DataBatch for batch in logged)
    for batch in logged:
        assert encode_frame(batch) == batch.raw


def test_shard_kill_respawns_a_real_process():
    outcome = run_dist_scenario(
        "shard-kill", 3, n_shards=2, n_packets=24, n_flows=3
    )
    assert outcome.infra_error is None
    assert outcome.violations == [], outcome.violations
    # the SIGKILL evidence: two distinct incarnation pids for s0
    history = outcome.evidence["pids"]["s0"]
    assert len(history) == 2 and history[0] != history[1]
    # the respawned incarnation finished the workload exactly-once
    assert outcome.per_shard["s0"]["egressed"] == 24


_SHORT_LIVED_COORDINATOR = """
import json, os, subprocess, sys, time
from repro.dist.transport import Listener

listener = Listener(port=0)
config = {
    "name": "store0",
    "control_host": "127.0.0.1",
    "control_port": listener.port,
    "wal_path": sys.argv[1],
}
child = subprocess.Popen(
    [sys.executable, "-m", "repro.dist.store_node", json.dumps(config)],
    stdout=subprocess.DEVNULL,
    stderr=subprocess.DEVNULL,
)
while not listener.accept_ready(0.0):  # the child is in its main loop
    time.sleep(0.01)
print(child.pid, flush=True)
os._exit(0)  # no shutdown command, no goodbye: a SIGKILLed coordinator
"""


def _running(pid: int) -> bool:
    """False once ``pid`` has exited (a zombie nobody reaps has exited)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except OSError:
        return False


def test_orphaned_child_exits_on_its_own(tmp_path):
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    coordinator = subprocess.run(
        [sys.executable, "-c", _SHORT_LIVED_COORDINATOR, str(tmp_path / "store0.wal")],
        env=dict(os.environ, PYTHONPATH=src_dir),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert coordinator.returncode == 0, coordinator.stderr
    pid = int(coordinator.stdout)
    try:
        deadline = time.monotonic() + 10.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _running(pid), "store node outlived its coordinator"
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)
