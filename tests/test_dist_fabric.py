"""Fabric smoke tests: real child processes, real sockets, real SIGKILL.

The heavy sweep lives in ``tools/campaign.py dist`` (CI's dist-smoke job);
these tests pin the fabric's contract at the smallest useful scale — a
clean distributed run and one kill-and-respawn run — so a regression in
process spawning, bridging, recovery, or the cross-process checkers fails
fast inside the tier-1 suite.
"""

from __future__ import annotations

from repro.dist.fabric import DIST_SCENARIOS, run_dist_scenario


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


def test_no_fault_run_is_clean_and_really_distributed():
    outcome = run_dist_scenario(
        "no-fault", 3, n_shards=2, n_packets=24, n_flows=3
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
    for shard in ("s0", "s1"):
        assert outcome.per_shard[shard]["egressed"] == 24


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
