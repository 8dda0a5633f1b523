"""Overload scenarios: bursts, slow stores, flash crowds (§8).

Chaos scenarios crash components; overload scenarios *saturate* them. The
contract under overload is different from the contract under failure: the
chain may shed load, but every shed must be accounted in the drop ledger
(:func:`repro.chaos.invariants.check_sheds_accounted`, which the one
battery, :func:`~repro.chaos.invariants.check_invariants`, runs first when
given ``injected``), exactly-once and per-flow ordering must hold for
everything that does get through, and no state may be lost or stranded.

Three named scenarios:

* ``overload-burst`` — a 2x-capacity arrival burst against bounded queues;
  drop-tail sheds must be accounted and the log must still drain.
* ``slow-store`` — a latency spike on the store links while the entry NF
  does a blocking read per packet; the client circuit breaker must trip
  and degrade reads to the stale cache (Table 1) instead of collapsing.
* ``flash-crowd`` — the flow population jumps 10x at 1.5x capacity; with
  the autoscaler on, goodput recovers via a real Figure-4 scale-out.

Every scenario runs with the autoscaler either off (graceful degradation)
or on (elastic recovery); :func:`measure_load_point` supports the
goodput-vs-offered-load knee sweep. :data:`FAMILY` declares both to the
shared harness (:mod:`repro.parallel.campaign`, ``tools/campaign.py
overload``), which writes ``BENCH_overload.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.counters import EntryCounterNF, SinkCounterNF
from repro.chaos.invariants import (
    InvariantViolation,
    check_invariants,
    egress_records,
)
from repro.core.autoscaler import AutoscaleController
from repro.core.chain_runtime import ChainRuntime, RuntimeParams
from repro.core.dag import LogicalChain
from repro.core.nf_api import Output
from repro.core.vertex_manager import default_scaling_logic
from repro.parallel.campaign import CampaignFamily, CampaignReport, WorkItem
from repro.simnet.engine import Simulator
from repro.simnet.monitor import percentiles
from repro.traffic.packet import FiveTuple, Packet

# Nominal capacity of the entry vertex: n_workers / proc_time_us.
ENTRY_PROC_US = 4.0
N_WORKERS = 4
CAPACITY_PPS_US = N_WORKERS / ENTRY_PROC_US  # packets per µs

DRAIN_US = 60_000.0


class ReadThroughEntryNF(EntryCounterNF):
    """Entry NF that additionally *blocks* on a shared-counter read per
    packet. ``total`` is WRITE_MOSTLY -> Table 1 NON_BLOCKING (no cache),
    so every read pays the store round trip — the knob that makes store
    latency, not CPU, the capacity limit for the slow-store scenario."""

    name = "entry"

    def process(self, packet, state):
        flow = packet.five_tuple.canonical().key()
        yield from state.read("total", None)
        yield from state.update("hits", flow, "incr", 1)
        yield from state.update("total", None, "incr", 1)
        return [Output(packet)]


class MidCounterNF(EntryCounterNF):
    """Second store-heavy stage for the store-hot scenario.

    Same per-flow + shared counters as the entry, under its own vertex —
    so the single store node hosts two comparably-loaded tenants and the
    store-side scale-out has a vertex it can split away."""

    name = "mid"


# --- load shapes --------------------------------------------------------


@dataclass
class LoadPhase:
    """One segment of the offered-load profile."""

    duration_us: float
    gap_us: float  # inter-packet gap (1/rate)
    n_flows: int


@dataclass
class StoreSpike:
    """A latency overlay on all store traffic for a window."""

    at_us: float
    extra_latency_us: float
    duration_us: float


@dataclass
class OverloadSpec:
    """A named overload pattern plus its runtime configuration."""

    name: str
    description: str
    phases: List[LoadPhase]
    read_through: bool = False
    store_spike: Optional[StoreSpike] = None
    runtime_overrides: Dict[str, Any] = field(default_factory=dict)
    # autoscaler tuning when enabled for a run
    scale_queue_threshold: int = 48
    scale_low_threshold: int = 4
    max_instances: int = 3
    # store-side elasticity (DESIGN.md §8): an extra store-heavy vertex in
    # the chain plus the rejection-hysteresis scale-out of the store tier
    store_heavy: bool = False
    store_scale: bool = False
    store_rejection_threshold: int = 8
    store_window_us: float = 200.0
    store_windows_over: int = 3
    max_stores: int = 2

    @property
    def horizon_us(self) -> float:
        return sum(phase.duration_us for phase in self.phases) + DRAIN_US


def _burst(_seed: int) -> List[LoadPhase]:
    cap_gap = 1.0 / CAPACITY_PPS_US
    return [
        LoadPhase(600.0, cap_gap / 0.7, 6),   # 0.7x warm-up
        LoadPhase(1_200.0, cap_gap / 2.0, 6),  # 2x burst
        LoadPhase(600.0, cap_gap / 0.7, 6),   # cool-down
    ]


def _slow_store(_seed: int) -> List[LoadPhase]:
    # Read-through capacity is ~n_workers / store RTT (~28µs): ~0.14 pkt/µs.
    # Offer ~0.7x of that throughout; the spike, not the load, is the fault.
    return [LoadPhase(3_000.0, 10.0, 6)]


def _store_hot(_seed: int) -> List[LoadPhase]:
    # With store_op_service_us=16 the store's capacity is 4 threads / 16µs
    # = 0.25 ops/µs; the plateau's three shared-counter updates per packet
    # offer ~0.3 ops/µs, so the store — not the NF CPUs (entry capacity is
    # 1 pkt/µs) — is the saturated resource and admission control sheds.
    return [
        LoadPhase(600.0, 14.0, 6),    # warm-up under store capacity
        LoadPhase(1_500.0, 10.0, 6),  # store-saturating plateau
        LoadPhase(600.0, 30.0, 6),    # cool-down: backlog drains
    ]


def _flash_crowd(_seed: int) -> List[LoadPhase]:
    cap_gap = 1.0 / CAPACITY_PPS_US
    return [
        LoadPhase(600.0, cap_gap / 0.7, 6),    # 0.7x over 6 flows
        LoadPhase(1_500.0, cap_gap / 1.5, 60),  # 1.5x over 60 flows
        LoadPhase(600.0, cap_gap / 0.7, 6),
    ]


SCENARIOS: Dict[str, OverloadSpec] = {
    spec.name: spec
    for spec in [
        OverloadSpec(
            name="overload-burst",
            description="2x-capacity arrival burst against bounded queues",
            phases=_burst(0),
        ),
        OverloadSpec(
            name="slow-store",
            description="store latency spike; breaker degrades reads to stale cache",
            phases=_slow_store(0),
            read_through=True,
            store_spike=StoreSpike(
                at_us=800.0, extra_latency_us=150.0, duration_us=1_200.0
            ),
            runtime_overrides=dict(
                breaker_enabled=True,
                breaker_failure_threshold=4,
                breaker_open_us=400.0,
                breaker_slow_call_us=60.0,
            ),
            # read-through capacity is latency-bound; backlog never reaches
            # the CPU-bound threshold, so keep the scale trigger low
            scale_queue_threshold=24,
        ),
        OverloadSpec(
            name="flash-crowd",
            description="flow population jumps 10x at 1.5x capacity",
            phases=_flash_crowd(0),
        ),
        OverloadSpec(
            name="store-hot",
            description=(
                "write-heavy chain saturates one store node; elasticity "
                "re-homes a vertex onto a fresh replica"
            ),
            phases=_store_hot(0),
            store_heavy=True,
            store_scale=True,
            runtime_overrides=dict(
                store_op_service_us=16.0,
                store_inflight_limit=12,
                store_overload_retry_us=40.0,
            ),
        ),
    ]
}

# package-level alias: distinguishes these from the fault-injection
# SCENARIOS in repro.chaos.campaign when both are imported together
OVERLOAD_SCENARIOS = SCENARIOS


# --- runner -------------------------------------------------------------


def build_overload_runtime(
    sim: Simulator, seed: int, spec: OverloadSpec, autoscale: bool
) -> ChainRuntime:
    chain = LogicalChain("overload")
    entry_nf = ReadThroughEntryNF if spec.read_through else EntryCounterNF
    scaling = (
        default_scaling_logic(
            queue_threshold=spec.scale_queue_threshold,
            low_threshold=spec.scale_low_threshold,
            settle_intervals=5,
        )
        if autoscale
        else None
    )
    chain.add_vertex("entry", entry_nf, entry=True, scaling_logic=scaling)
    proc_overrides = {"entry": ENTRY_PROC_US, "exit": 2.0}
    if spec.store_heavy:
        chain.add_vertex("mid", MidCounterNF)
        chain.add_vertex("exit", SinkCounterNF)
        chain.add_edge("entry", "mid")
        chain.add_edge("mid", "exit")
        proc_overrides["mid"] = 2.0
    else:
        chain.add_vertex("exit", SinkCounterNF)
        chain.add_edge("entry", "exit")
    params = dict(
        seed=seed,
        n_workers=N_WORKERS,
        proc_time_overrides=proc_overrides,
        instance_queue_capacity=64,
        overload_policy="drop",
        nic_queue_limit=128,
        store_inflight_limit=48,
    )
    params.update(spec.runtime_overrides)
    return ChainRuntime(sim, chain, params=RuntimeParams(**params))


def _inject_phases(sim: Simulator, runtime: ChainRuntime, spec: OverloadSpec):
    """Start the phased source; returns a mutable counter dict."""
    counters = {"injected": 0}

    def source():
        seq_per_flow: Dict[int, int] = {}
        for phase in spec.phases:
            end = sim.now + phase.duration_us
            index = 0
            while sim.now < end:
                flow = index % phase.n_flows
                index += 1
                seq_per_flow[flow] = seq_per_flow.get(flow, 0) + 1
                packet = Packet(
                    FiveTuple("10.0.0.1", "52.0.0.1", 1000 + flow, 80, 6),
                    payload=f"f{flow}-{seq_per_flow[flow]}",
                    # small frames: keep NIC serialization (~0.2µs @10G) off
                    # the critical path so capacity is CPU-bound and the
                    # queue-backlog scale trigger is the relevant signal
                    size_bytes=250,
                )
                runtime.inject(packet)
                counters["injected"] += 1
                yield sim.timeout(phase.gap_us)

    sim.process(source(), name="overload-source")
    return counters


@dataclass
class OverloadOutcome:
    """One (scenario, seed, autoscale) run with its measurements."""

    scenario: str
    seed: int
    autoscale: bool
    injected: int
    egressed: int
    sheds: Dict[str, int]
    goodput_ratio: float
    sojourn_p50_us: Optional[float]
    sojourn_p95_us: Optional[float]
    store_overload_rejections: int
    stale_reads: int
    breaker_opens: int
    autoscaler: Optional[Dict[str, Any]]
    violations: List[InvariantViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


def run_overload_scenario(
    spec: OverloadSpec,
    seed: int,
    autoscale: bool = False,
    collect_runtime: Optional[Callable] = None,
) -> OverloadOutcome:
    sim = Simulator()
    runtime = build_overload_runtime(sim, seed, spec, autoscale)
    controller = None
    if autoscale:
        runtime.start_vertex_managers(interval_us=50.0)
        controller = AutoscaleController(
            runtime,
            min_instances=1,
            max_instances=spec.max_instances,
            cooldown_us=1_500.0,
        )
        if spec.store_scale:
            controller.enable_store_elasticity(
                rejection_threshold=spec.store_rejection_threshold,
                window_us=spec.store_window_us,
                windows_over=spec.store_windows_over,
                max_stores=spec.max_stores,
            )
    if spec.store_spike is not None:
        for store in runtime.stores:
            runtime.network.degrade(
                dst=store.name,
                extra_latency_us=spec.store_spike.extra_latency_us,
                start=spec.store_spike.at_us,
                duration_us=spec.store_spike.duration_us,
            )
            runtime.network.degrade(
                src=store.name,
                extra_latency_us=spec.store_spike.extra_latency_us,
                start=spec.store_spike.at_us,
                duration_us=spec.store_spike.duration_us,
            )
    counters = _inject_phases(sim, runtime, spec)
    sim.run(until=spec.horizon_us)
    if collect_runtime is not None:
        collect_runtime(runtime)

    injected = counters["injected"]
    egressed = len({p for p, _ in egress_records(runtime) if p is not None})
    sheds = {
        cause: count
        for cause, count in sorted(runtime.network.drops.items())
        if count
    }
    sojourns = runtime.egress_recorder.values
    pcts = percentiles(sojourns, (50.0, 95.0)) if sojourns else {}
    breaker_opens = sum(
        i.client.breaker.stats.opens
        for i in runtime.instances.values()
        if i.client.breaker is not None
    )
    return OverloadOutcome(
        scenario=spec.name,
        seed=seed,
        autoscale=autoscale,
        injected=injected,
        egressed=egressed,
        sheds=sheds,
        goodput_ratio=(egressed / injected) if injected else 0.0,
        sojourn_p50_us=round(pcts[50.0], 3) if pcts else None,
        sojourn_p95_us=round(pcts[95.0], 3) if pcts else None,
        store_overload_rejections=sum(
            s.stats.overload_rejections for s in runtime.stores
        ),
        stale_reads=sum(
            i.client.stats.stale_reads for i in runtime.instances.values()
        ),
        breaker_opens=breaker_opens,
        autoscaler=controller.report() if controller is not None else None,
        violations=check_invariants(runtime, injected=injected),
    )


# --- knee sweep ---------------------------------------------------------


def measure_load_point(
    multiplier: float,
    autoscale: bool,
    seed: int = 0,
    duration_us: float = 1_500.0,
    n_flows: int = 24,
) -> Dict[str, Any]:
    """Goodput / latency / shed rate at one steady offered load.

    ``multiplier`` is offered load relative to a single entry instance's
    nominal capacity. The knee of goodput-vs-multiplier should sit near
    1.0 with the autoscaler off and move right when it is on.
    """
    gap = 1.0 / (CAPACITY_PPS_US * multiplier)
    spec = OverloadSpec(
        name=f"load-{multiplier}x",
        description="steady-load knee measurement point",
        phases=[LoadPhase(duration_us, gap, n_flows)],
    )
    outcome = run_overload_scenario(spec, seed, autoscale=autoscale)
    return {
        "multiplier": multiplier,
        "autoscale": autoscale,
        "seed": seed,
        "injected": outcome.injected,
        "egressed": outcome.egressed,
        "goodput_ratio": round(outcome.goodput_ratio, 4),
        "shed_rate": round(
            sum(outcome.sheds.values()) / outcome.injected, 4
        ) if outcome.injected else 0.0,
        "sojourn_p50_us": outcome.sojourn_p50_us,
        "sojourn_p95_us": outcome.sojourn_p95_us,
        "scale_outs": (
            outcome.autoscaler["scale_outs"] if outcome.autoscaler else 0
        ),
        "violations": [v.as_dict() for v in outcome.violations],
    }


# --- campaign family (repro.parallel.campaign, DESIGN.md §11.1) ----------

#: Offered-load multipliers for the goodput-knee sweep.
SWEEP_MULTIPLIERS: Tuple[float, ...] = (0.6, 1.0, 1.4, 2.0)


@dataclass
class KneePoint:
    """One knee-sweep measurement, shaped like an outcome for the report."""

    scenario: str  # "knee-<multiplier>x"
    seed: int
    point: Dict[str, Any]  # the measure_load_point() row, serialized as is

    @property
    def violations(self) -> List[Dict[str, Any]]:
        return self.point["violations"]

    @property
    def ok(self) -> bool:
        return not self.violations


def _auto(autoscale: Any) -> str:
    return str(autoscale).lower()


def _mean(values: Sequence[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    return round(sum(present) / len(present), 4) if present else None


class OverloadFamily(CampaignFamily):
    """Overload campaign, two parts. Invariant campaign: N seeds x the overload
    scenarios, each with the autoscaler off and on, every run checked for shed
    accounting (no silent loss), exactly-once externalization, per-flow
    ordering, no stranded ownership, drained root logs and zero flush give-ups.
    Knee sweep: goodput / latency / shed rate at steady offered loads around
    nominal capacity, autoscaler off vs on — the off-knee sits near 1.0x; with
    the autoscaler it moves right because scale-out via the Figure-4 handover
    adds real capacity. Records BENCH_overload.json."""

    name = "overload"
    output = "BENCH_overload.json"
    scenarios = dict(sorted(SCENARIOS.items()))  # swept (and recorded) by name

    flags = {
        "--no-sweep": dict(
            action="store_true",
            help="skip the goodput-knee load sweep (faster; CI smoke)",
        )
    }

    def options(self, args) -> Tuple[Tuple[float, ...], Dict[str, Any]]:
        multipliers = () if args.no_sweep else SWEEP_MULTIPLIERS
        return multipliers, {"sweep_multipliers": list(multipliers)}

    def items(self, names, seeds, variant) -> List[WorkItem]:
        """Seeds x scenarios x autoscale off/on, then one knee point per
        multiplier in ``variant`` (default: :data:`SWEEP_MULTIPLIERS`; empty
        skips the sweep) x off/on."""
        multipliers = SWEEP_MULTIPLIERS if variant is None else variant
        runs = [
            WorkItem(
                self.name,
                name,
                seed,
                variant=autoscale,
                context={"autoscale": autoscale, "kind": "run"},
                label=f"overload:{name}/auto={_auto(autoscale)}/seed={seed}",
            )
            for name in names
            for autoscale in (False, True)
            for seed in seeds
        ]
        knee = [
            WorkItem(
                self.name,
                f"knee-{multiplier}x",
                0,
                variant=(multiplier, autoscale),
                kind="knee",
                context={"autoscale": autoscale, "kind": "knee"},
                label=f"overload:knee-{multiplier}x/auto={_auto(autoscale)}",
            )
            for multiplier in multipliers
            for autoscale in (False, True)
        ]
        return runs + knee

    def run(self, item: WorkItem, reference: Any) -> Any:
        if item.kind == "knee":
            multiplier, autoscale = item.variant
            point = measure_load_point(multiplier, autoscale, seed=item.seed)
            return KneePoint(item.scenario, item.seed, point)
        return run_overload_scenario(
            self.scenarios[item.scenario], item.seed, autoscale=item.variant
        )

    def status(self, outcome: Any) -> str:
        row = outcome.point if isinstance(outcome, KneePoint) else vars(outcome)
        return (
            f"auto={_auto(row['autoscale']):<5}"
            f" goodput={row['goodput_ratio']:.3f} {super().status(outcome)}"
        )

    def qualifiers(self, outcome: OverloadOutcome) -> Dict[str, Any]:
        return {"autoscale": outcome.autoscale}

    def aggregate(self, report: CampaignReport) -> Dict[str, Any]:
        """One row per (scenario, autoscale) group, plus the knee points.

        Deterministic given the report lists: groups are emitted
        key-sorted and every mean/rate guards the empty and all-failed
        cases (a group whose every run crashed contributes ``runs: 0``
        and null means, not a ZeroDivisionError).
        """
        groups: Dict[str, List[OverloadOutcome]] = {}
        for outcome in report.outcomes:
            key = f"{outcome.scenario}/auto={_auto(outcome.autoscale)}"
            groups.setdefault(key, []).append(outcome)
        failed: Dict[str, int] = {}
        for failure in report.failures:
            if failure.context["kind"] == "run":
                key = f"{failure.scenario}/auto={_auto(failure.context['autoscale'])}"
                failed[key] = failed.get(key, 0) + 1
        rows: Dict[str, Any] = {}
        for key in sorted(set(groups) | set(failed)):
            group = groups.get(key, [])
            scaled = [o.autoscaler for o in group if o.autoscaler]
            scenario, _, auto = key.partition("/auto=")
            rows[key] = {
                "scenario": scenario,
                "autoscale": auto == "true",
                "runs": len(group),
                "failed_runs": failed.get(key, 0),
                "violations": sum(len(o.violations) for o in group),
                "goodput_ratio_mean": _mean([o.goodput_ratio for o in group]),
                "shed_rate_mean": _mean(
                    [
                        (sum(o.sheds.values()) / o.injected) if o.injected else 0.0
                        for o in group
                    ]
                ),
                "sojourn_p50_us_mean": _mean([o.sojourn_p50_us for o in group]),
                "sojourn_p95_us_mean": _mean([o.sojourn_p95_us for o in group]),
                "stale_reads_total": sum(o.stale_reads for o in group),
                "breaker_opens_total": sum(o.breaker_opens for o in group),
                "store_overload_rejections_total": sum(
                    o.store_overload_rejections for o in group
                ),
                "scale_outs_total": sum(a["scale_outs"] for a in scaled),
                "scale_ins_total": sum(a["scale_ins"] for a in scaled),
                "store_scale_outs_total": sum(a["store_scale_outs"] for a in scaled),
            }
        return {
            "scenarios": rows,
            "knee": [measured.point for measured in report.measurements],
        }

    def render(self, payload: Dict[str, Any]) -> str:
        lines = [
            "overload campaign (times in simulated microseconds)",
            f"{'scenario':<16} {'auto':<5} {'runs':>5} {'fail':>5} {'viol':>5}"
            f" {'goodput':>8} {'shed':>7} {'p95':>9}",
        ]
        for row in payload["scenarios"].values():
            goodput = row["goodput_ratio_mean"]
            shed = row["shed_rate_mean"]
            lines.append(
                f"{row['scenario']:<16} {_auto(row['autoscale']):<5}"
                f" {row['runs']:>5} {row['failed_runs']:>5}"
                f" {row['violations']:>5}"
                f" {goodput if goodput is not None else '-':>8}"
                f" {shed if shed is not None else '-':>7}"
                f" {row['sojourn_p95_us_mean'] or '-':>9}"
            )
        if payload["knee"]:
            lines.append("")
            lines.append(f"{'offered':>8} {'auto-off':>9} {'auto-on':>9}")
            by_mult: Dict[float, Dict[bool, Dict[str, Any]]] = {}
            for point in payload["knee"]:
                by_mult.setdefault(point["multiplier"], {})[point["autoscale"]] = point
            for mult in sorted(by_mult):
                off = by_mult[mult].get(False, {})
                on = by_mult[mult].get(True, {})
                lines.append(
                    f"{mult:>7}x {off.get('goodput_ratio', '-'):>9}"
                    f" {on.get('goodput_ratio', '-'):>9}"
                )
        return "\n".join(lines)


FAMILY = OverloadFamily()
