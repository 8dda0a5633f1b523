"""Run digests and the fast-path equivalence surface (DESIGN.md §9.3, §10).

Every BENCH_* number and every chaos/overload invariant gate assumes a
scenario run is a pure function of its seed. This module makes that
checkable: :func:`runtime_digest` hashes the full observable stream of a
finished run (ordered egress, drop ledger, shed causes, per-component
stats, engine counters), so two same-seed runs compare by digest. Any
divergence — a stray ``set`` iteration, a wall-clock read, a
process-global counter leaking into routing — shows up as a mismatch.
The same-seed gate over the chaos and overload scenarios is the
``determinism`` campaign family (:mod:`repro.analysis.campaign`,
``tools/campaign.py determinism``); the batching on/off equivalence is
``tests/test_fastpath.py::TestEquivalence``.

This module knows no scenario family and imports nothing of
``repro.parallel`` or ``repro.chaos`` at load time: the benchmark harness
imports it for its round digests.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Dict, List, Optional


def _canon(obj: Any) -> Any:
    """Canonicalise ``obj`` into a deterministically-reprable structure."""
    if isinstance(obj, dict):
        return tuple(sorted((repr(_canon(k)), _canon(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(item) for item in obj)
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(repr(_canon(item)) for item in obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canon(dataclasses.asdict(obj))
    if isinstance(obj, float):
        return repr(obj)
    return obj


def _stats_of(component: Any) -> Any:
    stats = getattr(component, "stats", None)
    if stats is None:
        return None
    if dataclasses.is_dataclass(stats) and not isinstance(stats, type):
        return _canon(dataclasses.asdict(stats))
    return _canon(vars(stats))


# What the engine spent, as opposed to what the run did: the keys of
# ``ChainRuntime.engine_report()`` that an engine optimisation may move
# while every callback still runs at the same instant in the same order.
ENGINE_COUNTERS = (
    "events_processed",
    "microtasks_processed",
    "heap_events",
    "microtask_share",
    "heap_peak",
    "heap_size",
)


def engine_counters_of(runtime) -> Dict[str, Any]:
    """The engine-counter half of :func:`runtime_digest`, in the clear."""
    report = runtime.engine_report()
    return {name: report[name] for name in ENGINE_COUNTERS}


def observable_digest(runtime) -> str:
    """SHA-256 over everything a run did, in event order: ordered egress,
    sojourn times, drops, every stats object, queue peaks, final ``now`` —
    all of :func:`runtime_digest` except :data:`ENGINE_COUNTERS`. Equal
    digests across an engine change mean nothing observable moved."""
    egress = [
        (
            vertex,
            packet.payload,
            packet.clock,
            packet.five_tuple.canonical().key(),
        )
        for vertex, packet in runtime.egress._items
    ]
    report = runtime.engine_report()
    for name in ENGINE_COUNTERS:
        del report[name]
    record: List[Any] = [
        ("now", repr(runtime.sim.now)),
        ("egress", _canon(egress)),
        ("egress_sojourns", _canon(list(runtime.egress_recorder.values))),
        ("duplicates_suppressed", runtime.duplicates_suppressed),
        ("drops", _canon(dict(runtime.network.drops))),
        ("engine", _canon(report)),
        (
            "instances",
            _canon(
                {
                    instance_id: _stats_of(instance)
                    for instance_id, instance in runtime.instances.items()
                }
            ),
        ),
        ("stores", _canon({store.name: _stats_of(store) for store in runtime.stores})),
        ("roots", _canon({root.name: _stats_of(root) for root in runtime.roots})),
    ]
    return hashlib.sha256(repr(record).encode("utf-8")).hexdigest()


def runtime_digest(runtime) -> str:
    """SHA-256 over the run's full observable stream *and* what the engine
    spent on it: :func:`observable_digest` combined with
    :func:`engine_counters_of`."""
    record = (observable_digest(runtime), _canon(engine_counters_of(runtime)))
    return hashlib.sha256(repr(record).encode("utf-8")).hexdigest()


def require_no_crash(runtime) -> None:
    """Raise if a simulation process of this run died of an exception.

    Processes are started fire-and-forget, so an exception escaping one
    only shows downstream (packets that never reach the root, say).
    ``Simulator.crashed`` names the culprit.
    """
    crashed = runtime.sim.crashed
    if crashed:
        name, error = crashed[0]
        raise RuntimeError(
            f"{len(crashed)} simulation process(es) crashed, first {name!r}: {error!r}"
        )


def checked_digest(runtime) -> str:
    """:func:`runtime_digest`, refused for a run in which a process
    crashed — that would be a digest of the bug."""
    require_no_crash(runtime)
    return runtime_digest(runtime)


# --- fast-path equivalence (DESIGN.md §10) ------------------------------
#
# The batched fast path re-times everything (one generator resume per
# batch, lumped proc-time debt), so ``runtime_digest`` — which folds in
# sojourn times and engine counters — legitimately differs between
# batching on and off. What the fast path *does* promise (its equivalence
# contract) is byte-identical egress content and per-flow order, plus
# identical per-flow state. The helpers below digest exactly that surface
# so the contract is checkable per seed.

# Value-compared: the final value is a function of that flow's own packet
# sequence only, so batching must reproduce it byte-for-byte.
_PER_FLOW_TABLES = ("conn_allowed", "bucket", "hits")
# Key-compared: per-flow *bindings* drawn from a cross-flow allocator
# (NAT ports, LB backends). Which value a flow drew depends on the
# cross-flow interleaving of allocations — batching may legally pick a
# different (equally valid) serialization — but the *set of flows bound*
# must be identical.
_ALLOCATION_TABLES = ("port_map", "conn_map")


def flow_egress_digest(runtime) -> str:
    """SHA-256 over per-flow egress content and order (not global timing).

    For each canonical flow key, the ordered sequence of its egress
    packets' observable bytes: payload, directed five-tuple, size, flags,
    clock. Global interleaving across flows, sojourn times, and engine
    event counts are deliberately excluded — the fast path does not
    promise those.
    """
    flows: Dict[Any, List[Any]] = {}
    for _vertex, packet in runtime.egress._items:
        key = packet.five_tuple.canonical().key()
        flows.setdefault(key, []).append(
            (
                packet.payload,
                packet.five_tuple.key(),
                packet.size_bytes,
                packet.flags,
                packet.clock,
            )
        )
    record = tuple(sorted((repr(_canon(k)), _canon(v)) for k, v in flows.items()))
    return hashlib.sha256(repr(record).encode("utf-8")).hexdigest()


def per_flow_state(runtime) -> Dict[str, Any]:
    """The comparable per-flow state surface of a finished run.

    Flow-deterministic tables contribute ``key: value``; allocation-backed
    bindings contribute ``key: "<bound>"`` (presence, not value — see
    ``_ALLOCATION_TABLES``). Pure cross-flow state (``available_ports``,
    ``server_conns``, counters) is excluded entirely.
    """
    from repro.chaos.invariants import chain_state

    surface: Dict[str, Any] = {}
    for key, value in chain_state(runtime).items():
        if any(table in key for table in _PER_FLOW_TABLES):
            surface[key] = value
        elif any(table in key for table in _ALLOCATION_TABLES):
            surface[key] = "<bound>" if value is not None else None
    return surface


def _declarative_chain():
    """The standard all-declarative 4-NF chain used by equivalence runs."""
    from repro.core.dag import LogicalChain
    from repro.nfs.firewall import Firewall
    from repro.nfs.load_balancer import LoadBalancer
    from repro.nfs.nat import Nat
    from repro.nfs.rate_limiter import RateLimiter

    chain = LogicalChain("fp-equiv")
    chain.add_vertex("firewall", Firewall, entry=True)
    chain.add_vertex("nat", Nat)
    chain.add_vertex("ratelimiter", RateLimiter)
    chain.add_vertex("lb", LoadBalancer)
    chain.add_edge("firewall", "nat")
    chain.add_edge("nat", "ratelimiter")
    chain.add_edge("ratelimiter", "lb")
    return chain


def seeded_workload(seed: int, packets: int, flows: int) -> List[Any]:
    """Deterministic packet list: seeded flow interleaving, SYN-led flows,
    occasional FINs — every packet is admitted by all four NFs (the
    branches that drop are ``tests/test_fastpath.py::TestDroppingBranches``)."""
    import random

    from repro.traffic.packet import ACK, FIN, SYN, FiveTuple, Packet

    rng = random.Random(seed)
    started = [False] * flows
    seq = [0] * flows
    out: List[Any] = []
    for _ in range(packets):
        f = rng.randrange(flows)
        ft = FiveTuple(
            f"10.0.{f % 4}.{1 + f}",
            f"52.0.0.{1 + (f % 5)}",
            5000 + f,
            80,
            6,
        )
        if not started[f]:
            flags = SYN
            started[f] = True
        elif rng.random() < 0.02:
            flags = FIN | ACK
        else:
            flags = ACK
        out.append(Packet(ft, flags=flags, payload=f"f{f}-{seq[f]}"))
        seq[f] += 1
    return out


def run_equivalence_once(
    seed: int,
    fastpath: bool,
    packets: int = 400,
    flows: int = 12,
    batch: int = 16,
    gap_us: float = 0.8,
    fault: Optional[Any] = None,
    horizon_us: float = 10_000_000.0,
):
    """One seeded run of the declarative chain; returns the runtime.

    ``fault``, if given, is called as ``fault(sim, runtime)`` after setup
    so tests can schedule mid-run handovers or NF crashes.
    """
    from repro.core.chain_runtime import ChainRuntime, RuntimeParams
    from repro.simnet.engine import Simulator

    sim = Simulator()
    params = RuntimeParams(fastpath_enabled=fastpath, fastpath_batch=batch)
    runtime = ChainRuntime(sim, _declarative_chain(), params=params)
    workload = seeded_workload(seed, packets, flows)

    def source():
        for packet in workload:
            runtime.inject(packet)
            yield sim.timeout(gap_us)

    sim.process(source())
    if fault is not None:
        fault(sim, runtime)
    sim.run(until=horizon_us)
    return runtime
