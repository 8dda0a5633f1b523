"""Named planned-operation scenarios and the ops campaign family.

The chaos campaign's mirror image: instead of a fault schedule, every
scenario carries a *maintenance plan* — a
:class:`~repro.ops.director.MaintenanceDirector` operation sequence — run
against live traffic. An ops scenario is a chaos
:class:`~repro.chaos.campaign.ScenarioSpec` with ``operations`` set and
this module's chain and traffic, so it runs in the one disturbed-run
driver, :func:`~repro.chaos.campaign.run_scenario`: a
:class:`~repro.chaos.director.ChaosDirector` and
:class:`~repro.core.supervisor.Supervisor` are attached, so unplanned
crashes (``build_schedule``) can overlay planned work and orderly
retirements exercise the supervisor's retired-guards. Each run is checked
against the ideal chain (the chain as built, before the plan edits it,
run by :func:`repro.analysis.ideal.ideal_run` over the same packets) with
the one battery,
:func:`~repro.chaos.invariants.check_invariants`, which for a plan adds
:func:`~repro.chaos.invariants.check_operation_converged` (no transitional
structure survives the run),
:func:`~repro.chaos.invariants.check_no_downtime` (goodput never stalled
while an operation was executing) and the ``operation-completed`` check.

The workload is a three-vertex chain — ``entry`` (per-flow + shared
state, two instances) -> ``scrub`` (per-flow state) -> ``exit`` (shared
state) — over two store nodes, long enough that every operation starts,
finishes, and settles while packets are still flowing. Topology-edit
scenarios change which vertices exist, so their state comparison excludes
the spliced vertex's keys (the ideal chain never ran the edit);
everything else — egress identities, per-flow order, ownership — must
still match exactly.

:data:`FAMILY` declares the family to the shared harness
(:mod:`repro.parallel.campaign`, ``tools/campaign.py ops``), which writes
``BENCH_operations.json``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Generator

from repro.chaos.campaign import (
    N_FLOWS,
    ScenarioOutcome,
    ScenarioSpec,
    fig8_percentiles,
    paced_source,
    run_scenario,
)
from repro.chaos.counters import EntryCounterNF, SinkCounterNF
from repro.chaos.schedule import CrashNF, Schedule
from repro.core.chain_runtime import ChainRuntime, RuntimeParams
from repro.core.cloning import CloneController
from repro.core.dag import LogicalChain
from repro.core.nf_api import NetworkFunction, Output
from repro.ops.director import MaintenanceDirector
from repro.parallel.campaign import CampaignFamily, CampaignReport, WorkItem
from repro.simnet.engine import Simulator
from repro.store.spec import AccessPattern, Scope, StateObjectSpec

# --- workload -----------------------------------------------------------

N_PACKETS = 240
OP_AT_US = 90.0
# Flows that start while the operation is in flight ("upgrade-new-flows"):
# spaced wider than one Figure-4 move, so an evacuation that has to move
# each of them as it appears still converges (ROADMAP: sustained arrival).
LATE_ROUNDS = 3
LATE_GAP_US = 40.0


class ScrubNF(NetworkFunction):
    """Mid-chain per-flow marker counter: the vertex topology edits
    remove, so its per-flow ownership must be cleanly disowned."""

    name = "scrub"

    def state_specs(self):
        return {
            "flags": StateObjectSpec(
                "flags", Scope.PER_FLOW, AccessPattern.READ_WRITE_OFTEN, initial_value=0
            ),
        }

    def process(self, packet, state):
        flow = packet.five_tuple.canonical().key()
        yield from state.update("flags", flow, "incr", 1)
        return [Output(packet)]


class PatchNF(NetworkFunction):
    """The NF the insert scenario splices in mid-traffic (shared counter
    only, so the insertion changes no pre-existing state)."""

    name = "patch"

    def state_specs(self):
        return {
            "patched": StateObjectSpec(
                "patched", Scope.CROSS_FLOW, AccessPattern.WRITE_MOSTLY, (), initial_value=0
            ),
        }

    def process(self, packet, state):
        yield from state.update("patched", None, "incr", 1)
        return [Output(packet)]


def build_runtime(sim: Simulator, seed: int, **overrides) -> ChainRuntime:
    """entry (x2, per-flow + shared) -> scrub (per-flow) -> exit (shared),
    state spread over two store nodes (entry/exit on store0, scrub on
    store1 — so replacing store0 re-homes the busiest node)."""
    chain = LogicalChain("ops")
    chain.add_vertex("entry", EntryCounterNF, parallelism=2, entry=True)
    chain.add_vertex("scrub", ScrubNF)
    chain.add_vertex("exit", SinkCounterNF)
    chain.add_edge("entry", "scrub")
    chain.add_edge("scrub", "exit")
    params = dict(seed=seed, checkpoint_interval_us=60.0)
    params.update(overrides)
    return ChainRuntime(
        sim, chain, params=RuntimeParams(**params), n_store_instances=2
    )


def inject_workload(sim: Simulator, runtime: ChainRuntime) -> None:
    """The chaos campaign's paced source (same flows, pacing and
    ``f<flow>-<seq>`` payload identities), three times as long."""
    paced_source(sim, runtime, N_PACKETS, "ops-source")


def inject_with_late_flows(sim: Simulator, runtime: ChainRuntime) -> None:
    """:func:`inject_workload` plus N_FLOWS flows nobody has seen before
    ``OP_AT_US``: each first packet is routed to whichever instance is its
    hash home *at that instant* — the one being taken out of service, for
    as long as it holds its slot."""
    inject_workload(sim, runtime)
    paced_source(
        sim,
        runtime,
        LATE_ROUNDS * N_FLOWS,
        "ops-late-flows",
        first_flow=N_FLOWS,
        start_us=OP_AT_US + LATE_GAP_US / 2,
        gap_us=LATE_GAP_US,
    )


# --- scenarios ----------------------------------------------------------


#: an ops scenario: a chaos ScenarioSpec on this module's chain and traffic
_ops_scenario = partial(
    ScenarioSpec, build_runtime=build_runtime, workload=inject_workload
)


def _plan_rolling_upgrade(director: MaintenanceDirector) -> Generator:
    yield director.sim.timeout(OP_AT_US)
    yield from director.rolling_upgrade("entry")


def _plan_store_replace(director: MaintenanceDirector) -> Generator:
    yield director.sim.timeout(OP_AT_US)
    yield from director.replace_store("store0")


def _plan_topology_insert(director: MaintenanceDirector) -> Generator:
    yield director.sim.timeout(OP_AT_US)
    yield from director.insert_vertex("patch", PatchNF, "scrub", "exit")


def _plan_topology_remove(director: MaintenanceDirector) -> Generator:
    yield director.sim.timeout(OP_AT_US)
    yield from director.remove_vertex("scrub")


def _plan_hot_reload(director: MaintenanceDirector) -> Generator:
    yield director.sim.timeout(OP_AT_US)
    yield from director.hot_reload(
        {"retransmit_timeout_us": 250.0, "proc_time_us": 1.5}
    )


def _plan_upgrade_after_failover(director: MaintenanceDirector) -> Generator:
    # the most ordinary day-2 sequence: the crash overlay below is long
    # recovered (~31 us) when the upgrade meets what failover left behind
    yield director.sim.timeout(OP_AT_US + 30.0)
    yield from director.rolling_upgrade("entry")


def _plan_mitigate_then_upgrade(director: MaintenanceDirector) -> Generator:
    """§5.3 under the battery: clone entry-0, keep the clone (even seeds) or
    the original (odd seeds), then upgrade the vertex — whatever ``retain``
    left of the loser is the upgrade's first victim."""
    controller = CloneController(director.runtime)
    yield director.sim.timeout(OP_AT_US)
    session = yield from controller.mitigate("entry-0")
    yield director.sim.timeout(40.0)  # both copies of live traffic are flowing
    keep = ("clone", "straggler")[director.runtime.params.seed % 2]
    yield from controller.retain(session, keep)
    yield from director.rolling_upgrade("entry")


def _entry_crash_before_upgrade(_seed: int) -> Schedule:
    return Schedule([CrashNF(at_us=50.0, instance_id="entry-1")])


def _victim_crash_awaiting_its_turn(_seed: int) -> Schedule:
    # entry-0's step runs ~60 us from OP_AT_US; entry-1 dies inside it, so
    # the upgrade's view of the vertex is stale when entry-1's turn comes
    return Schedule([CrashNF(at_us=OP_AT_US + 20.0, instance_id="entry-1")])


def _upgrade_crash_overlay(_seed: int) -> Schedule:
    # an unplanned scrub-NF crash lands while the entry upgrade is mid-
    # flight: the supervisor must run real failover for the crash while
    # its retired-guards keep ignoring the upgrade's orderly retirements.
    # (Mid-chain on purpose: replayed packets pass the downstream exit
    # instance's duplicate filter, the paper's exactly-once mechanism.)
    return Schedule([CrashNF(at_us=OP_AT_US + 60.0, vertex="scrub")])


SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in [
        _ops_scenario(
            name="rolling-upgrade",
            description="replace both entry instances one at a time under traffic",
            operations=_plan_rolling_upgrade,
        ),
        _ops_scenario(
            name="store-replace",
            description="live-replace store0 (entry+exit state) with WAL catch-up",
            operations=_plan_store_replace,
        ),
        _ops_scenario(
            name="topology-insert",
            description="splice a patch NF between scrub and exit mid-traffic",
            operations=_plan_topology_insert,
            exclude_vertices=("patch",),
        ),
        _ops_scenario(
            name="topology-remove",
            description="splice the scrub NF out, preserving per-flow order",
            operations=_plan_topology_remove,
            exclude_vertices=("scrub",),
            downtime_floor=None,  # the pause gate is a bounded planned stall
        ),
        _ops_scenario(
            name="hot-reload",
            description="hot-apply retransmit timeout + service time changes",
            operations=_plan_hot_reload,
        ),
        _ops_scenario(
            name="upgrade-crash-overlay",
            description="unplanned scrub-NF crash during the rolling entry upgrade",
            operations=_plan_rolling_upgrade,
            build_schedule=_upgrade_crash_overlay,
        ),
        _ops_scenario(
            name="upgrade-new-flows",
            description="rolling entry upgrade while new flows send their first packets",
            operations=_plan_rolling_upgrade,
            workload=inject_with_late_flows,
        ),
        _ops_scenario(
            name="upgrade-after-failover",
            description="entry-1 crashes and is failed over, then the entry upgrade",
            operations=_plan_upgrade_after_failover,
            build_schedule=_entry_crash_before_upgrade,
            # entry-1r is replayed entry-0's flows too, a rejected store
            # round trip each, and buffers its own until ~235 us — the
            # window entry-0's flows spend moving is empty (ROADMAP)
            downtime_floor=None,
        ),
        _ops_scenario(
            name="upgrade-victim-crash",
            description="entry-1 crashes while awaiting its turn in the entry upgrade",
            operations=_plan_rolling_upgrade,
            build_schedule=_victim_crash_awaiting_its_turn,
        ),
        _ops_scenario(
            name="mitigate-then-upgrade",
            description="clone entry-0, retain one (seed parity), then the entry upgrade",
            operations=_plan_mitigate_then_upgrade,
            # retain kills the loser with copies in flight: each has a live
            # twin, so nothing is lost, but its done-report dies with it and
            # the log entry waits for the prune protocol (ROADMAP open item)
            expect_log_drained=False,
        ),
    ]
}


# --- campaign family (repro.parallel.campaign, DESIGN.md §11.1) ----------


class OpsFamily(CampaignFamily):
    """Planned-operations campaign: N seeds x the maintenance scenarios run
    under live traffic, checked against the ideal chain with the one
    invariant battery and its maintenance checks (the runtime converges
    back to a clean steady state, every planned operation completes,
    goodput stays above the scenario's floor while it is in flight);
    records BENCH_operations.json."""

    name = "ops"
    output = "BENCH_operations.json"
    scenarios = SCENARIOS

    def run(self, item: WorkItem) -> ScenarioOutcome:
        return run_scenario(self.scenarios[item.scenario], item.seed)

    def aggregate(self, report: CampaignReport) -> Dict[str, Any]:
        rows: Dict[str, Any] = {}
        for scenario, (outcomes, row) in report.by_scenario().items():
            # completed-operation durations across all seeds
            durations = [us for o in outcomes for us in o.operation_us]
            mins = [
                o.min_window_egress
                for o in outcomes
                if o.min_window_egress is not None
            ]
            row["operations_completed"] = len(durations)
            row["operations_aborted"] = sum(
                op["status"] == "aborted" for o in outcomes for op in o.operations
            )
            row["goodput_windows"] = sum(o.goodput_windows for o in outcomes)
            if mins:
                row["min_window_egress"] = min(mins)
            if durations:
                row["operation_us_percentiles"] = fig8_percentiles(durations)
            rows[scenario] = row
        return {"scenarios": rows}

    def render(self, payload: Dict[str, Any]) -> str:
        lines = [
            "operations campaign (times in simulated microseconds)",
            f"{'scenario':<22} {'runs':>5} {'fail':>5} {'done':>5} {'abrt':>5}"
            f" {'viol':>5} {'minwin':>6} {'p5':>8} {'p50':>8} {'p95':>8}",
        ]
        for name, row in payload["scenarios"].items():
            pct = row.get("operation_us_percentiles", {})
            lines.append(
                f"{name:<22} {row['runs']:>5} {row['failed_runs']:>5}"
                f" {row['operations_completed']:>5}"
                f" {row['operations_aborted']:>5}"
                f" {row['violations']:>5}"
                f" {row.get('min_window_egress', '-'):>6}"
                f" {pct.get('p5', '-'):>8} {pct.get('p50', '-'):>8}"
                f" {pct.get('p95', '-'):>8}"
            )
        return "\n".join(lines)


FAMILY = OpsFamily()
