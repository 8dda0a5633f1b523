"""The distributed fabric's campaign family (DESIGN.md §13.6).

:data:`FAMILY` declares the real-process fault scenarios
(:data:`~repro.dist.fabric.DIST_SCENARIOS`) to the shared harness
(:mod:`repro.parallel.campaign`, ``tools/campaign.py dist``), so they sweep
on the same conventions as every other campaign (DESIGN.md §11):
submission-order merge, the three-way failure taxonomy (invariant
violation / :class:`~repro.parallel.merge.RunFailure` /
:class:`~repro.parallel.pool.InfraFailure`), per-run timeout and crash
quarantine. :class:`~repro.dist.fabric.FabricError` is already folded
into ``DistOutcome.infra_error`` (and ``DistOutcome.ok``) by the fabric
itself; anything else escaping a run is a harness bug recorded as a
``RunFailure``. Each work item is heavyweight — one fabric run spawns a
store process and N shard processes of its own — so job counts here
multiply OS processes, not just Python interpreters: jobs x (shards + 2).

One honest deviation from §11: fabric runs measure *real* elapsed time
and real socket behaviour, so per-run ``duration_s`` and transport
counters vary run to run. The merge is still deterministic in structure
and order (submission order, key-sorted aggregates); only those measured
fields differ between repetitions, exactly like the wall-clock ``meta``
fields of the other campaigns.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.dist.fabric import DIST_SCENARIOS, DistOutcome, run_dist_scenario
from repro.parallel.campaign import CampaignFamily, CampaignReport, WorkItem

__all__ = ["FAMILY", "DistFamily"]

N_SHARDS = 2
#: (packets, flows) per shard workload: full size, and the CI smoke's
WORKLOAD = (48, 4)
QUICK_WORKLOAD = (24, 3)
QUICK_SEEDS = 2
DEADLINE_S = 90.0


class DistFamily(CampaignFamily):
    """Distributed-fabric fault campaign: N seeds x a clean run, SIGKILL of a
    shard, SIGKILL of the store, a connection partition and a half-open stall,
    each as real OS processes over real localhost TCP. Every run is checked
    with the invariant battery across process boundaries against the ideal
    chain fed its own injection ledger, and every fault must leave
    real-world evidence (pid histories, RST / refused-connect counters) or it
    is a violation. Records BENCH_dist.json."""

    name = "dist"
    output = "BENCH_dist.json"
    scenarios = dict(sorted(DIST_SCENARIOS.items()))  # swept (and recorded) by name
    sanitizable = False  # the runs live in child processes
    run_timeout_s = 180.0

    flags = {
        "--quick": dict(
            action="store_true",
            help="CI smoke: 2 seeds, 24 packets x 3 flows, all scenarios",
        )
    }

    def options(self, args: Any) -> Tuple[Tuple[int, int], Dict[str, Any]]:
        if args.quick:
            args.seeds = min(args.seeds, QUICK_SEEDS)
        workload = QUICK_WORKLOAD if args.quick else WORKLOAD
        packets, flows = workload
        return workload, {
            "shards": N_SHARDS,
            "packets": packets,
            "flows": flows,
            "quick": args.quick,
        }

    def run(self, item: WorkItem) -> DistOutcome:
        n_packets, n_flows = item.variant or WORKLOAD
        return run_dist_scenario(
            item.scenario,
            item.seed,
            n_shards=N_SHARDS,
            n_packets=n_packets,
            n_flows=n_flows,
            deadline_s=DEADLINE_S,
        )

    def status(self, outcome: DistOutcome) -> str:
        mark = (
            f"INFRA: {outcome.infra_error}"
            if outcome.infra_error is not None
            else super().status(outcome)
        )
        return f"{outcome.duration_s:5.1f}s {mark}"

    def aggregate(self, report: CampaignReport) -> Dict[str, Any]:
        rows: Dict[str, Any] = {}
        for scenario, (outcomes, row) in report.by_scenario().items():
            evidence = [o.evidence for o in outcomes]
            row["ok_runs"] = sum(o.ok for o in outcomes)
            row["infra_errors"] = sum(o.infra_error is not None for o in outcomes)
            row["retransmissions"] = sum(
                shard.get("retransmissions", 0)
                for o in outcomes
                for shard in o.per_shard.values()
            )
            row["socket_resets"] = sum(
                conn.get("resets", 0)
                for found in evidence
                for conn in found.get("socket_faults", {}).values()
            )
            row["respawned_children"] = sum(
                max(0, len(set(pids)) - 1)
                for found in evidence
                for pids in found.get("pids", {}).values()
            )
            row["duration_s_total"] = round(sum(o.duration_s for o in outcomes), 3)
            rows[scenario] = row
        return {
            "scenarios": rows,
            "runs": [outcome.as_dict() for outcome in report.outcomes],
        }

    def render(self, payload: Dict[str, Any]) -> str:
        lines = [
            "distributed fabric campaign (real processes, real sockets)",
            f"{'scenario':<12} {'runs':>5} {'fail':>5} {'ok':>4} {'viol':>5}"
            f" {'infra':>6} {'rexmit':>7} {'resets':>7} {'respawn':>8} {'wall_s':>7}",
        ]
        for name, row in payload["scenarios"].items():
            lines.append(
                f"{name:<12} {row['runs']:>5} {row['failed_runs']:>5}"
                f" {row['ok_runs']:>4} {row['violations']:>5}"
                f" {row['infra_errors']:>6} {row['retransmissions']:>7}"
                f" {row['socket_resets']:>7} {row['respawned_children']:>8}"
                f" {row['duration_s_total']:>7}"
            )
        return "\n".join(lines)


FAMILY = DistFamily()
