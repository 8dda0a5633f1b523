"""Named chaos scenarios, the one disturbed-run driver, and the chaos family.

A scenario (:class:`ScenarioSpec`) is a disturbance plus the invariant
profile the run must satisfy: a fault schedule, a maintenance plan
(:mod:`repro.ops.campaign`'s scenarios), or both, on a chain and traffic
— an overload scenario (:mod:`repro.chaos.overload`) saturates its chain.
:func:`disturbed_run`, the one driver, runs a spec with a
:class:`~repro.chaos.director.ChaosDirector` and a
:class:`~repro.core.supervisor.Supervisor` always attached and a
:class:`~repro.ops.director.MaintenanceDirector` when there is a plan;
:func:`check_scenario` checks the run with
:func:`repro.chaos.invariants.check_invariants`, against a reference when
given one. :func:`run_scenario` is both halves (chaos and ops), against
the ideal chain (:func:`ideal_reference`).

The chaos workload is a two-vertex chain (per-flow + cross-flow state at
the entry, cross-flow state at the sink; the NFs are in
:mod:`repro.chaos.counters`) carrying ``N_PACKETS`` packets over
``N_FLOWS`` flows; every packet's payload is stamped ``"f<flow>-<seq>"``
so identities compare across runs even when a root failover shifts the
clock space (footnote 5). A scenario may bring its own
chain and traffic (``build_runtime`` / ``workload``).

:data:`FAMILY` declares the family to the shared harness
(:mod:`repro.parallel.campaign`, ``tools/campaign.py chaos``), which sweeps
seeds x scenarios; the family aggregates recovery-time distributions
(Figure 8-style percentiles: 5/25/50/75/95) into the per-scenario rows of
``BENCH_recovery.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.analysis.ideal import ideal_run
from repro.chaos.counters import EntryCounterNF, SinkCounterNF
from repro.chaos.director import ChaosDirector, DetectionModel
from repro.chaos.invariants import (
    InvariantViolation,
    RunSnapshot,
    check_invariants,
)
from repro.chaos.schedule import (
    CrashNF,
    CrashRoot,
    CrashStore,
    LinkLossBurst,
    Partition,
    Schedule,
)
from repro.core.chain_runtime import ChainRuntime, RuntimeParams
from repro.core.dag import LogicalChain
from repro.core.supervisor import Supervisor
from repro.ops.director import MaintenanceDirector
from repro.parallel.campaign import CampaignFamily, CampaignReport, WorkItem
from repro.simnet.engine import Simulator
from repro.simnet.monitor import PERCENTILES_FIG8, RecoveryTimeline, percentiles
from repro.traffic.packet import FiveTuple, Packet

# --- workload -----------------------------------------------------------

N_PACKETS = 80
N_FLOWS = 6
GAP_US = 3.0
FAULT_AT_US = 120.0
HORIZON_US = 400_000.0
#: goodput window of a maintenance plan's no-downtime check
MONITOR_WINDOW_US = 50.0


def build_runtime(sim: Simulator, seed: int, **overrides) -> ChainRuntime:
    """The campaign's chain: entry (per-flow + shared) -> exit (shared)."""
    chain = LogicalChain("chaos")
    chain.add_vertex("entry", EntryCounterNF, entry=True)
    chain.add_vertex("exit", SinkCounterNF)
    chain.add_edge("entry", "exit")
    params = dict(
        seed=seed,
        # periodic checkpoints: store recovery needs one to rebuild shared
        # state from (Case 1/2 of §5.4 both start at a checkpoint)
        checkpoint_interval_us=60.0,
    )
    params.update(overrides)
    return ChainRuntime(sim, chain, params=RuntimeParams(**params))


def paced_source(
    sim: Simulator, runtime: ChainRuntime, n_packets: int, name: str,
    first_flow: int = 0, start_us: float = 0.0, gap_us: float = GAP_US,
) -> None:
    """Start a paced source of ``n_packets`` packets over N_FLOWS flows
    (numbered from ``first_flow``), payload identities ``f<flow>-<seq>``
    (shared with the ops campaign)."""

    def source():
        if start_us:
            yield sim.timeout(start_us)
        for index in range(n_packets):
            flow = first_flow + index % N_FLOWS
            packet = Packet(
                FiveTuple("10.0.0.1", "52.0.0.1", 1000 + flow, 80, 6),
                payload=f"f{flow}-{index // N_FLOWS + 1}",
            )
            runtime.inject(packet)
            yield sim.timeout(gap_us)

    sim.process(source(), name=name)


def inject_workload(sim: Simulator, runtime: ChainRuntime) -> None:
    """Start the paced packet source (N_FLOWS flows, payload identities)."""
    paced_source(sim, runtime, N_PACKETS, "chaos-source")


# --- scenarios ----------------------------------------------------------


@dataclass
class ScenarioSpec:
    """A named disturbance — fault schedule, maintenance plan, or both —
    plus the chain and traffic it disturbs and its invariant profile."""

    name: str
    description: str
    #: unplanned faults, executed by the chaos director
    build_schedule: Optional[Callable[[int], Schedule]] = None
    #: maintenance plan: a generator run as a sim process; paces itself and
    #: drives the :class:`~repro.ops.director.MaintenanceDirector`
    operations: Optional[Callable[[MaintenanceDirector], Generator]] = None
    #: the chain, and the traffic for this scenario and for the ideal
    #: chain it is checked against; a workload may return a callable giving
    #: how many packets it injected, all of which must then be accounted
    build_runtime: Callable[..., ChainRuntime] = build_runtime
    workload: Callable[[Simulator, ChainRuntime], Optional[Callable[[], int]]] = inject_workload
    #: simulated time the disturbed run and the recorded workload stop at
    horizon_us: float = HORIZON_US
    loss_allowance: int = 0
    expect_log_drained: bool = True
    #: minimum egress packets per goodput window while an operation runs;
    #: None disables the no-downtime check (a removal's pause gate is a
    #: bounded planned stall — loss-free and order-preserving, but not
    #: stall-free)
    downtime_floor: Optional[int] = 1
    #: vertices whose state keys are excluded from the loss-free diff
    #: (topology edits make them exist in only one of the run and the ideal)
    exclude_vertices: Tuple[str, ...] = ()
    runtime_overrides: Dict[str, Any] = field(default_factory=dict)


def _nf_crash(_seed: int) -> Schedule:
    return Schedule([CrashNF(at_us=FAULT_AT_US, vertex="entry")])


def _store_crash(_seed: int) -> Schedule:
    return Schedule([CrashStore(at_us=FAULT_AT_US + 30.0, name="store0")])


def _root_crash(_seed: int) -> Schedule:
    return Schedule([CrashRoot(at_us=FAULT_AT_US, root_id=0)])


def _partition(_seed: int) -> Schedule:
    # NFs cut off from the store for 1.5ms mid-workload; the root still
    # reaches both sides. Blocking ops and flushes must ride their retry
    # budgets across the window.
    return Schedule(
        [Partition(at_us=FAULT_AT_US, groups=(("nfs",), ("stores",)), duration_us=1_500.0)]
    )


def _lossy_link(_seed: int) -> Schedule:
    # 5% loss on ALL control-plane traffic for the whole run, plus an NF
    # crash: recovery itself must make progress over the lossy fabric.
    return Schedule(
        [
            LinkLossBurst(at_us=0.0, loss=0.05, duration_us=None),
            CrashNF(at_us=FAULT_AT_US, vertex="entry"),
        ]
    )


def _nf_plus_root(_seed: int) -> Schedule:
    # correlated crash (Table 3, recoverable with the store-kept log)
    return Schedule(
        [
            CrashNF(at_us=FAULT_AT_US, vertex="entry"),
            CrashRoot(at_us=FAULT_AT_US, root_id=0),
        ]
    )


SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in [
        ScenarioSpec(
            name="nf-crash",
            description="fail-stop one entry NF instance mid-workload",
            build_schedule=_nf_crash,
        ),
        ScenarioSpec(
            name="store-crash",
            description="fail-stop the datastore instance holding all state",
            build_schedule=_store_crash,
        ),
        ScenarioSpec(
            name="root-crash",
            description="fail-stop the root (locally-logged packet log dies)",
            build_schedule=_root_crash,
            # Theorem B.3.1: packets inside the root at the crash instant
            # are dropped; at GAP_US pacing that is a handful at most.
            loss_allowance=8,
        ),
        ScenarioSpec(
            name="partition",
            description="NFs partitioned from the store for 1.5ms",
            build_schedule=_partition,
        ),
        ScenarioSpec(
            name="lossy-link",
            description="5% control-plane loss all run + an NF crash",
            build_schedule=_lossy_link,
            # one-way deletes/commits are not retransmitted: lost ones
            # legitimately strand root log entries
            expect_log_drained=False,
        ),
        ScenarioSpec(
            name="nf-plus-root",
            description="correlated NF+root crash with store-kept log (Table 3)",
            build_schedule=_nf_plus_root,
            runtime_overrides={"log_in_store": True},
        ),
    ]
}


# --- driver -------------------------------------------------------------


@dataclass
class ScenarioOutcome:
    """One (scenario, seed) disturbed run, checked against its reference.
    The operation fields stay empty for a run without a maintenance plan."""

    scenario: str
    seed: int
    violations: List[InvariantViolation]
    recovery_us: Dict[str, float]  # component -> failed->recovered
    protocol_us: Dict[str, float]  # component -> recovery_started->recovered
    egress_count: int
    reference_egress_count: Optional[int]  # None: checked without a reference
    timeline: List[Dict[str, Any]]
    operations: List[Dict[str, Any]] = field(default_factory=list)  # asdict(OperationRecord)
    operation_us: List[float] = field(default_factory=list)  # completed-operation durations
    goodput_windows: int = 0
    min_window_egress: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.violations


def ideal_reference(spec: ScenarioSpec, seed: int) -> RunSnapshot:
    """The ideal chain's run of ``spec``: the chain ``build_runtime``
    builds, before any topology edit, over the packets ``workload``
    injects by ``horizon_us`` (recorded in a bare simulator)."""
    chain = spec.build_runtime(Simulator(), seed, **spec.runtime_overrides).chain
    sim = Simulator()
    packets: List[Packet] = []
    spec.workload(sim, SimpleNamespace(inject=packets.append))
    sim.run(until=spec.horizon_us)
    return ideal_run(chain, packets)


@dataclass
class DisturbedRun:
    """A finished disturbed run of ``spec`` under ``seed``, not yet checked."""

    spec: ScenarioSpec
    seed: int
    runtime: ChainRuntime
    timeline: RecoveryTimeline
    supervisor: Supervisor
    director: Optional[MaintenanceDirector]
    #: packets the workload reports it injected (None: it reports none)
    injected: Optional[int]


def disturbed_run(
    spec: ScenarioSpec, seed: int, detection: Optional[DetectionModel] = None
) -> DisturbedRun:
    """Run ``spec``'s chain and workload under ``seed`` with its fault
    schedule and maintenance plan, a chaos director and a supervisor
    attached. The determinism gate digests this half alone."""
    sim = Simulator()
    runtime = spec.build_runtime(sim, seed, **spec.runtime_overrides)
    timeline = RecoveryTimeline()
    chaos = ChaosDirector(
        sim,
        network=runtime.network,
        detection=detection,
        seed=seed,
        timeline=timeline,
    )
    supervisor = runtime.attach_supervisor(chaos, timeline=timeline)
    # process-creation order is part of every digest: the director's
    # goodput monitor, then the fault schedule, then the plan, then traffic
    director = None
    if spec.operations is not None:
        director = MaintenanceDirector(runtime, monitor_window_us=MONITOR_WINDOW_US)
    if spec.build_schedule is not None:
        chaos.execute(spec.build_schedule(seed), runtime)
    if director is not None:
        sim.process(spec.operations(director), name=f"ops-{spec.name}")
    count = spec.workload(sim, runtime)
    sim.run(until=spec.horizon_us)
    injected = count() if count is not None else None
    return DisturbedRun(spec, seed, runtime, timeline, supervisor, director, injected)


def check_scenario(
    run: DisturbedRun, reference: Optional[RunSnapshot] = None
) -> ScenarioOutcome:
    """Check a disturbed run with the one invariant battery — against
    ``reference`` when there is one — and collect its recovery and
    operation figures."""
    spec, runtime, timeline, director = run.spec, run.runtime, run.timeline, run.director
    violations = check_invariants(
        runtime,
        reference=reference,
        injected=run.injected,
        supervisor=run.supervisor,
        loss_allowance=spec.loss_allowance,
        expect_log_drained=spec.expect_log_drained,
        exclude_vertices=spec.exclude_vertices,
        director=director,
        downtime_floor=spec.downtime_floor,
        label=spec.name,
    )
    outcome = ScenarioOutcome(
        scenario=spec.name,
        seed=run.seed,
        violations=violations,
        recovery_us=timeline.recovery_durations(since="failed"),
        protocol_us=timeline.recovery_durations(since="recovery_started"),
        egress_count=len(runtime.egress),
        reference_egress_count=len(reference.egress) if reference is not None else None,
        timeline=timeline.as_dicts(),
    )
    if director is not None:
        windows = director.monitor.windows
        outcome.operations = [asdict(record) for record in director.records]
        outcome.operation_us = [r.duration_us for r in director.completed()]
        outcome.goodput_windows = len(windows)
        outcome.min_window_egress = min((c for _t, c in windows), default=None)
    return outcome


def run_scenario(
    spec: ScenarioSpec,
    seed: int,
    detection: Optional[DetectionModel] = None,
    collect_runtime: Optional[Callable] = None,
) -> ScenarioOutcome:
    """Run ``spec`` disturbed under ``seed`` and check invariants against
    the ideal chain (:func:`ideal_reference`).

    ``collect_runtime`` is called with the finished :class:`ChainRuntime`
    before it is checked.
    """
    reference = ideal_reference(spec, seed)
    run = disturbed_run(spec, seed, detection)
    if collect_runtime is not None:
        collect_runtime(run.runtime)
    return check_scenario(run, reference)


# --- campaign family (repro.parallel.campaign, DESIGN.md §11.1) ----------


def fig8_percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """Figure 8-style row (p5/p25/p50/p75/p95); ``{}`` for no samples, so
    a scenario whose every run crashed still serializes."""
    return {
        f"p{int(q)}": round(v, 3)
        for q, v in percentiles(samples, PERCENTILES_FIG8).items()
    }


class ChaosFamily(CampaignFamily):
    """Chaos campaign: N seeds x the fault scenarios, every run checked against
    the correctness invariants (state and egress equal to the ideal chain's,
    exactly-once externalization, per-flow ordering, no stranded ownership,
    drained root logs, completed recoveries); records recovery-time
    distributions in BENCH_recovery.json."""

    name = "chaos"
    output = "BENCH_recovery.json"
    default_seeds = 20
    scenarios = SCENARIOS

    flags = {
        "--detection-us": dict(
            type=float,
            default=0.0,
            help="heartbeat interval in µs (0 = the paper's instantaneous detector)",
        ),
        "--detection-misses": dict(
            type=int, default=1, help="missed heartbeats before declaring death"
        ),
    }

    def options(self, args) -> Tuple[Optional[DetectionModel], Dict[str, Any]]:
        detection = None
        if args.detection_us > 0:
            detection = DetectionModel(
                heartbeat_interval_us=args.detection_us, misses=args.detection_misses
            )
        return detection, {
            "detection_us": args.detection_us,
            "detection_misses": args.detection_misses,
        }

    def run(self, item: WorkItem) -> ScenarioOutcome:
        return run_scenario(self.scenarios[item.scenario], item.seed, detection=item.variant)

    def aggregate(self, report: CampaignReport) -> Dict[str, Any]:
        rows: Dict[str, Any] = {}
        for scenario, (outcomes, row) in report.by_scenario().items():
            # every component recovery time: failed -> recovered, and the
            # protocol's own share of it (recovery_started -> recovered)
            recovery = [us for o in outcomes for us in o.recovery_us.values()]
            protocol = [us for o in outcomes for us in o.protocol_us.values()]
            row["recoveries"] = len(recovery)
            if recovery:
                row["recovery_us_percentiles"] = fig8_percentiles(recovery)
            if protocol:
                row["protocol_us_percentiles"] = fig8_percentiles(protocol)
            rows[scenario] = row
        return {"scenarios": rows}

    def render(self, payload: Dict[str, Any]) -> str:
        lines = [
            "chaos campaign (times in simulated microseconds)",
            f"{'scenario':<16} {'runs':>5} {'fail':>5} {'recov':>6} {'viol':>5}"
            f" {'p5':>8} {'p50':>8} {'p95':>8}",
        ]
        for name, row in payload["scenarios"].items():
            pct = row.get("recovery_us_percentiles", {})
            lines.append(
                f"{name:<16} {row['runs']:>5} {row['failed_runs']:>5}"
                f" {row['recoveries']:>6}"
                f" {row['violations']:>5}"
                f" {pct.get('p5', '-'):>8} {pct.get('p50', '-'):>8}"
                f" {pct.get('p95', '-'):>8}"
            )
        return "\n".join(lines)


FAMILY = ChaosFamily()
