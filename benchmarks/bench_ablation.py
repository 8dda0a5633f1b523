"""Ablations of CHC's design choices (DESIGN.md §4, paper §4.3/§5.4).

1. **Scope-aware partitioning** (§4.1): partitioning on a subset of a
   shared object's scope confines the object to one instance, so the
   client-side library may cache it. Ablate by partitioning the portscan
   detector on the full 5-tuple instead of src IP: per-host likelihood
   becomes shared, every connection event pays a blocking store RTT.

2. **Store replication** (§5.4 "Correlated failures"): replication
   survives the otherwise-unrecoverable component+store failure "at the
   cost of increasing the per packet processing latency" — measure that
   cost for the NAT under none / asynchronous / synchronous replication.
"""

import numpy as np
import pytest

from conftest import run_once
from repro.bench.calibration import bench_scale
from repro.bench.report import ResultTable, write_result
from repro.core.chain_runtime import ChainRuntime, RuntimeParams
from repro.core.dag import LogicalChain
from repro.core.splitter import FIVE_TUPLE
from repro.nfs import Nat, PortscanDetector
from repro.simnet.engine import Simulator
from repro.store.datastore import DatastoreInstance
from repro.traffic.trace import make_trace2
from repro.traffic.workload import ReplaySource


def probe_packets(n_hosts=6, probes_per_host=150):
    """A scan-heavy workload: few hosts, many connection events each, so
    the per-host likelihood object is touched repeatedly (cold-cache
    first-touches amortise away)."""
    from repro.traffic.flows import FlowSpec, flow_packets, interleave
    from repro.traffic.packet import FiveTuple

    flows = []
    for host in range(n_hosts):
        for probe in range(probes_per_host):
            flows.append(flow_packets(FlowSpec(
                five_tuple=FiveTuple(
                    f"10.0.2.{host + 1}", "52.0.0.9", 20_000 + probe, 80
                ),
                n_packets=2,
                refused=(probe % 3 == 0),
                start_us=(host + n_hosts * probe) * 6.0,
                gap_us=2.0,
            )))
    return [p for _t, p in interleave(flows)]


def run_partitioning_arm(scope_aware, packets):
    sim = Simulator()
    chain = LogicalChain("ablate-scope")
    chain.add_vertex("scan", PortscanDetector, parallelism=2, entry=True)
    runtime = ChainRuntime(sim, chain)
    if not scope_aware:
        runtime.splitter("scan").partition_fields = FIVE_TUPLE
        runtime._apply_exclusivity()
    ReplaySource(sim, [p.copy() for p in packets], runtime.inject, load_fraction=0.5)
    sim.run(until=300_000_000)
    values = [v for i in runtime.instances_of("scan") for v in i.recorder.values]
    events = [v for v in values if v > 2.5]  # connection-event packets
    blocking = sum(i.client.stats.blocking_ops for i in runtime.instances_of("scan"))
    return values, events, blocking


def test_ablation_scope_aware_partitioning(benchmark):
    packets = probe_packets()

    def experiment():
        return {
            "scope-aware (src_ip)": run_partitioning_arm(True, packets),
            "naive (5-tuple)": run_partitioning_arm(False, packets),
        }

    results = run_once(benchmark, experiment)
    table = ResultTable(
        title="Ablation — scope-aware partitioning (portscan, 2 instances)",
        headers=["partitioning", "p99 pkt latency", "event packets >2.5us",
                 "blocking store ops"],
    )
    for name, (values, events, blocking) in results.items():
        table.add(name, f"{np.percentile(values, 99):.1f}us", len(events), blocking)
    table.note("scope-aware split keeps the per-host likelihood cacheable: "
               "connection events never block on the store")
    write_result("ablation_scope", [table])

    aware = results["scope-aware (src_ip)"]
    naive = results["naive (5-tuple)"]
    assert aware[2] <= 20           # only cold first-touches
    assert naive[2] > 500           # every conn event blocks
    assert len(naive[1]) > 10 * max(len(aware[1]), 1)


def run_replication_arm(mode, trace):
    sim = Simulator()
    chain = LogicalChain("ablate-repl")
    chain.add_vertex("nat", Nat, entry=True)
    # NAT pays blocking ops on SYNs (port allocation is offloaded), which
    # is where synchronous replication shows up; counters stay non-blocking
    runtime = ChainRuntime(sim, chain, params=RuntimeParams(wait_for_acks=True))
    if mode != "none":
        primary = runtime.stores[0]
        # the mirror must know the NFs' custom operations too
        DatastoreInstance(
            sim, runtime.network, "mirror0", registry=primary.registry.copy()
        )
        primary.mirror = "mirror0"
        primary.sync_replication = mode == "sync"
    ReplaySource(sim, trace.packets, runtime.inject, load_fraction=0.3)
    sim.run(until=300_000_000)
    return runtime.instances_of("nat")[0].recorder.values


def test_ablation_store_replication_cost(benchmark):
    trace = make_trace2(scale=bench_scale(0.001))

    def experiment():
        return {mode: run_replication_arm(mode, trace) for mode in ("none", "async", "sync")}

    results = run_once(benchmark, experiment)
    table = ResultTable(
        title="Ablation — store replication latency cost (NAT, ACK-waiting)",
        headers=["replication", "median (us)", "p95 (us)"],
    )
    medians = {}
    for mode, values in results.items():
        medians[mode] = float(np.median(values))
        table.add(mode, f"{medians[mode]:.1f}", f"{np.percentile(values, 95):.1f}")
    table.note('paper: replication "comes at the cost of increasing the per '
               'packet processing latency" — visible only in synchronous mode')
    write_result("ablation_replication", [table])

    assert medians["async"] == pytest.approx(medians["none"], rel=0.2)
    p95 = {m: float(np.percentile(v, 95)) for m, v in results.items()}
    assert p95["sync"] > p95["none"] + 20.0  # +1 store RTT on blocking ops
