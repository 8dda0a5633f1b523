"""The three simulator workloads: traffic, chain, one measured round.

A *round* pushes one frozen packet list through a freshly built chain and
runs the simulator to quiescence. In host time that is a batch job; in
simulated time it is an open loop at a fixed offered load. The harness
generates the traffic from ``--seed``; the program only ever receives the
packets. Every round of one invocation is the same work, so its digest and
simulated-time metrics must repeat exactly — that is the determinism guard.

The chain4 workloads offer 1434-byte packets every 0.8 us (14.3 Gbps into
10 Gbps NICs): the offered load is above the chain's simulated capacity by
design, so the backlog grows for the whole round, ``sim_goodput_gbps`` is
the saturation goodput and ``sim_latency_*`` are queueing-dominated. Deep
queues are what fill the fast path's batches; do not "fix" the gap.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.determinism import flow_egress_digest, runtime_digest
from repro.bench import build_paper_chain
from repro.chaos.invariants import (
    check_exactly_once,
    check_flow_ordering,
    egress_records,
)
from repro.core.chain_runtime import ChainRuntime, RuntimeParams
from repro.core.dag import LogicalChain
from repro.nfs import Firewall, LoadBalancer, Nat, RateLimiter
from repro.simnet.engine import Simulator
from repro.simnet.monitor import engine_counters
from repro.traffic import ReplaySource, make_trace2
from repro.traffic.packet import ACK, SYN, FiveTuple, Packet

from calibrate import spin, to_reference

CHAIN4_FLOWS = 64
CHAIN4_GAP_US = 0.8
#: ReplaySource load fraction that spaces 1434-byte packets CHAIN4_GAP_US apart.
CHAIN4_LOAD = 1434 * 8 / (10_000.0 * CHAIN4_GAP_US)
#: Untimed prefix run before the timed rounds (cold fast path ran 15 % slow).
WARMUP_PACKETS = 2000


def scaled(size: int, quick: bool) -> int:
    """``--quick`` divides every size by ten."""
    return size // 10 if quick else size


def chain4_packets(seed: int, n_packets: int) -> List[Packet]:
    """``n_packets`` over 64 long flows, seeded interleave, SYN-led.

    One source host per flow: a shared rate-limiter bucket would make the
    admit decision depend on cross-flow probe order, which batching may
    legally reorder, and the fast-path equivalence check needs byte-equal
    egress. A shorter list is a prefix of a longer one for the same seed.
    """
    rng = random.Random(seed)
    next_seq = [0] * CHAIN4_FLOWS
    packets = []
    for _ in range(n_packets):
        flow = rng.randrange(CHAIN4_FLOWS)
        five_tuple = FiveTuple(
            f"10.0.{flow % 4}.{1 + flow}", f"52.0.0.{1 + flow % 5}", 5000 + flow, 80, 6
        )
        seq = next_seq[flow]
        next_seq[flow] = seq + 1
        packets.append(
            Packet(five_tuple, flags=ACK if seq else SYN, payload=f"f{flow}-{seq}")
        )
    return packets


def trace2_packets(seed: int, scale: float) -> List[Packet]:
    """The repo's Trace2 analogue, stamped with the ``f<conn>-<seq>``
    payload identities the invariant checkers key on (both directions of a
    connection share one sequence: they take the same path)."""
    packets = make_trace2(scale=scale, seed=seed).packets
    index: Dict[tuple, int] = {}
    next_seq: Dict[int, int] = {}
    for packet in packets:
        conn = index.setdefault(packet.five_tuple.canonical().key(), len(index))
        seq = next_seq.get(conn, 0)
        next_seq[conn] = seq + 1
        packet.payload = f"f{conn}-{seq}"
    return packets


def build_chain4(sim: Simulator, fastpath: bool) -> ChainRuntime:
    """firewall -> NAT -> rate limiter -> LB, all declarative."""
    chain = LogicalChain("chain4")
    chain.add_vertex("firewall", Firewall, entry=True)
    chain.add_vertex("nat", Nat)
    chain.add_vertex("ratelimiter", RateLimiter)
    chain.add_vertex("lb", LoadBalancer)
    chain.add_edge("firewall", "nat")
    chain.add_edge("nat", "ratelimiter")
    chain.add_edge("ratelimiter", "lb")
    return ChainRuntime(sim, chain, params=RuntimeParams(fastpath_enabled=fastpath))


def build_paper_mixed(sim: Simulator, fastpath: bool) -> ChainRuntime:
    """The paper's 7.1 chain: NAT -> portscan -> LB, mirrored trojan detector."""
    return build_paper_chain(
        sim,
        params=RuntimeParams(fastpath_enabled=fastpath),
        nat_parallelism=2,
        scan_parallelism=2,
    )


@dataclass(frozen=True)
class SimWorkload:
    name: str
    traffic: Callable[[int, bool], List[Packet]]  # (seed, quick) -> packets
    build: Callable[[Simulator, bool], ChainRuntime]
    load_fraction: float
    fastpath: bool
    #: simulated us per timed slice, sized so a slice is ~0.4 s of host time
    slice_us: float
    #: warm-up also runs the prefix with the fast path off; egress must match
    check_equivalence: bool = False


# Round sizes are frozen: changing one re-bases every number measured so far.
SIM_WORKLOADS: Dict[str, SimWorkload] = {
    w.name: w
    for w in (
        SimWorkload(
            "chain4_general",
            lambda seed, quick: chain4_packets(seed, scaled(12_000, quick)),
            build_chain4,
            CHAIN4_LOAD,
            fastpath=False,
            slice_us=3_000.0,
        ),
        SimWorkload(
            "chain4_fast",
            lambda seed, quick: chain4_packets(seed, scaled(24_000, quick)),
            build_chain4,
            CHAIN4_LOAD,
            fastpath=True,
            slice_us=10_000.0,
            check_equivalence=True,
        ),
        SimWorkload(
            "paper_mixed",
            lambda seed, quick: trace2_packets(seed, 0.0002 if quick else 0.002),
            build_paper_mixed,
            0.5,
            fastpath=True,
            slice_us=3_000.0,
        ),
    )
}


@dataclass
class Round:
    """What one measured round produced."""

    packets: int
    wall_s: float  # raw host seconds inside sim.run()
    cpu_s: float
    ref_wall_s: float  # the same, in reference-speed seconds (calibrate.py)
    ref_cpu_s: float
    failed: int
    problems: List[str]
    digest: str  # full observable stream: egress, timing, every stats object
    egress_digest: str  # per-flow egress content and order only
    sim: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)


def run_round(
    workload: SimWorkload,
    packets: List[Packet],
    fastpath: Optional[bool] = None,
    profile=None,
) -> Round:
    """Build the chain, replay ``packets``, run to quiescence, verify.

    Only ``sim.run()`` is timed (GC on, collected just before), in slices
    of ``workload.slice_us`` simulated time with one calibration spin
    between slices: each slice's time is rescaled by the host speed seen
    right before and after it. Pausing at a slice boundary does not change
    what the simulation does. ``profile`` is an optional ``cProfile.Profile``
    enabled around the same regions.
    """
    sim = Simulator()
    runtime = workload.build(sim, workload.fastpath if fastpath is None else fastpath)
    # NFs rewrite packets in place, so every round replays its own copies
    ReplaySource(
        sim, [p.copy() for p in packets], runtime.inject, load_fraction=workload.load_fraction
    )
    gc.collect()
    wall_s = cpu_s = ref_wall_s = ref_cpu_s = 0.0
    before = spin()
    while sim.next_event_time() is not None:
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        if profile is not None:
            profile.enable()
        sim.run(until=sim.now + workload.slice_us)
        if profile is not None:
            profile.disable()
        slice_wall = time.perf_counter() - wall_start
        slice_cpu = time.process_time() - cpu_start
        after = spin()
        wall_s += slice_wall
        cpu_s += slice_cpu
        ref_wall_s += to_reference(slice_wall, (before, after))
        ref_cpu_s += to_reference(slice_cpu, (before, after))
        before = after

    n = len(packets)
    problems = _check(runtime, n)
    failed = min(n, max((p.count for p in problems), default=0))
    recorder = runtime.egress_recorder
    return Round(
        packets=n,
        wall_s=wall_s,
        cpu_s=cpu_s,
        ref_wall_s=ref_wall_s,
        ref_cpu_s=ref_cpu_s,
        failed=failed,
        problems=[p.text for p in problems],
        digest=runtime_digest(runtime),
        egress_digest=flow_egress_digest(runtime),
        sim={
            "sim_latency_p50_us": recorder.percentile(50),
            "sim_latency_p999_us": recorder.percentile(99.9),
            "sim_goodput_gbps": runtime.egress_meter.gbps(),
        },
        counts=_layer_counts(runtime, n),
    )


def warm_up(workload: SimWorkload, packets: List[Packet], quick: bool) -> List[str]:
    """Untimed prefix run; returns the problems it found (normally none)."""
    prefix = packets[: scaled(WARMUP_PACKETS, quick)]
    first = run_round(workload, prefix)
    problems = list(first.problems)
    if workload.check_equivalence:
        general = run_round(workload, prefix, fastpath=False)
        problems += general.problems
        if general.egress_digest != first.egress_digest:
            problems.append(
                "fast-path equivalence: warm-up egress digest differs with the "
                f"fast path off ({general.egress_digest[:12]}) and on "
                f"({first.egress_digest[:12]})"
            )
    return problems


@dataclass
class _Problem:
    text: str
    count: int  # packets it makes unaccounted


def _check(runtime: ChainRuntime, n: int) -> List[_Problem]:
    """A packet is accounted correctly if it egressed exactly once in
    per-flow order, or an NF verdict dropped it, and the root deleted it."""
    problems: List[_Problem] = []
    egress = egress_records(runtime)
    for violations in (check_exactly_once(egress), check_flow_ordering(egress)):
        if violations:
            problems.append(
                _Problem(
                    f"{violations[0].invariant}: {len(violations)} violations, "
                    f"first: {violations[0].detail}",
                    len(violations),
                )
            )
    injected = sum(root.stats.injected for root in runtime.roots)
    deleted = sum(root.stats.deleted for root in runtime.roots)
    residual = sum(len(root.log) for root in runtime.roots)
    if injected != n:
        problems.append(_Problem(f"root injected {injected} of {n} packets", n - injected))
    if deleted != injected:
        problems.append(
            _Problem(f"root deleted {deleted} of {injected} packets", injected - deleted)
        )
    if residual:
        problems.append(_Problem(f"root log not drained: {residual} entries", residual))
    return problems


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_counts(runtime: ChainRuntime, n: int) -> Dict[str, float]:
    """Per-layer counts read from the program's public stats objects."""
    engine = engine_counters(runtime.sim, runtime.network)
    report = runtime.engine_report()
    instances = list(runtime.instances.values())
    clients = [instance.client.stats for instance in instances]
    stores = [store.stats for store in runtime.stores]
    roots = [root.stats for root in runtime.roots]

    blocking = sum(c.blocking_ops for c in clients)
    ops = blocking + sum(c.nonblocking_ops + c.local_ops for c in clients)
    cached = sum(c.cached_reads for c in clients)
    batches = sum(instance.client.stats_batches_sent for instance in instances)
    applied = sum(s.ops_applied for s in stores)
    emulated = sum(s.ops_emulated for s in stores)
    visits = sum(instance.stats.processed for instance in instances)
    fastpath = report.get("fastpath", {}).values()
    fast = sum(entry["fast"] for entry in fastpath)
    injected = sum(r.injected for r in roots)
    per_k = 1000.0 / n

    return {
        "simnet.engine.events_per_pkt": engine.events_processed / n,
        "simnet.engine.microtask_share": engine.microtask_share,
        "simnet.engine.heap_peak": engine.heap_peak,
        "simnet.net.msgs_per_pkt": runtime.network.delivered / n,
        "simnet.net.rpc_retries_per_kpkt": engine.rpc_retries * per_k,
        "simnet.net.drops_per_kpkt": runtime.network.dropped * per_k,
        "simnet.net.nic_txq_peak": max(report["nic_txq_peaks"].values(), default=0),
        "store.client.ops_per_pkt": ops / n,
        "store.client.blocking_share": _ratio(blocking, ops),
        "store.client.cache_hit_ratio": _ratio(
            cached, cached + sum(c.store_reads for c in clients)
        ),
        "store.client.batches_per_pkt": batches / n,
        "store.client.retransmissions_per_kpkt": sum(c.retransmissions for c in clients) * per_k,
        "store.datastore.ops_applied_per_pkt": applied / n,
        "store.datastore.dedup_emulated_ratio": _ratio(emulated, applied + emulated),
        "store.datastore.commit_signals_per_pkt": sum(s.commit_signals for s in stores) / n,
        "store.datastore.callbacks_per_pkt": sum(s.callbacks_sent for s in stores) / n,
        "store.datastore.rejected_per_kpkt": sum(s.rejected for s in stores) * per_k,
        "core.root.commit_signals_per_pkt": sum(r.commit_signals for r in roots) / n,
        "core.root.deleted_ratio": _ratio(sum(r.deleted for r in roots), injected),
        "core.root.log_residual": sum(len(root.log) for root in runtime.roots),
        "core.instance.queue_peak": max(report["instance_queue_peaks"].values(), default=0),
        "core.instance.duplicates_per_kpkt": sum(i.stats.duplicates_seen for i in instances) * per_k,
        "core.instance.nf_drops_per_kpkt": sum(i.stats.dropped for i in instances) * per_k,
        "core.instance.shed_per_kpkt": sum(i.stats.shed for i in instances) * per_k,
        "core.fastpath.fast_share": _ratio(fast, visits),
        "core.fastpath.fused_share": _ratio(sum(e["fused_in"] for e in fastpath), fast),
        "core.fastpath.pkts_per_store_batch": _ratio(n, batches),
    }
