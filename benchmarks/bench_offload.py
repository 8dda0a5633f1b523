"""§7.1 operation offloading — CHC offload vs naive read-modify-write.

Paper: with two NAT instances updating shared state (available ports and
counters), caching off, "the median packet processing latency of the
naive approach is 2.17X worse (64.6us vs 29.7us), because it not only
requires 2 RTTs to update state ... but it may also have NFs wait to
acquire locks. CHC's aggregate throughput across the two instances is
>2X better."
"""

from conftest import run_once
from repro.baselines.statelessnf import StatelessNfHarness
from repro.bench.calibration import bench_scale, params_for_model
from repro.bench.report import ResultTable, write_result
from repro.core.chain_runtime import ChainRuntime
from repro.core.dag import LogicalChain
from repro.nfs import Nat
from repro.simnet.engine import Simulator
from repro.simnet.network import Link, Network
from repro.store.datastore import DatastoreInstance
from repro.traffic.trace import make_trace2
from repro.traffic.workload import ReplaySource
from repro.util import stable_hash

PAPER_RATIO = 2.17


def test_operation_offloading(benchmark):
    trace = make_trace2(scale=bench_scale(0.001))

    def experiment():
        # --- CHC: ops offloaded to the store, caching off ----------------
        chc_sim = Simulator()
        chain = LogicalChain("offload")
        chain.add_vertex("nat", Nat, parallelism=2, entry=True)
        chc = ChainRuntime(
            chc_sim, chain, params=params_for_model("EO")
        )
        # offered at full line rate: the arms differ in how fast they drain
        ReplaySource(chc_sim, trace.packets, chc.inject, load_fraction=1.0)
        chc_sim.run(until=300_000_000)
        chc_values = [
            v for i in chc.instances_of("nat") for v in i.recorder.values
        ]
        chc_bits = sum(i.throughput.bits for i in chc.instances_of("nat"))
        chc_span = max(
            i.throughput.last_at or 0.0 for i in chc.instances_of("nat")
        ) - min(i.throughput.first_at or 0.0 for i in chc.instances_of("nat"))

        # --- naive: lock+read / write+unlock per op (StatelessNF-style) --
        naive_sim = Simulator()
        network = Network(naive_sim, Link(latency_us=14.0), seed=1)
        DatastoreInstance(naive_sim, network, "store0")
        instances = [
            StatelessNfHarness(naive_sim, Nat(), network, "store0", name=f"naive-{k}")
            for k in range(2)
        ]

        def split(packet):
            shard = stable_hash(packet.five_tuple.canonical().key()) % 2
            instances[shard].inject(packet)

        ReplaySource(naive_sim, trace.packets, split, load_fraction=1.0)
        naive_sim.run(until=300_000_000)
        naive_values = [v for i in instances for v in i.recorder.values]
        naive_bits = sum(i.throughput.bits for i in instances)
        naive_span = max(i.throughput.last_at or 0.0 for i in instances) - min(
            i.throughput.first_at or 0.0 for i in instances
        )
        return chc_values, chc_bits, chc_span, naive_values, naive_bits, naive_span

    chc_values, chc_bits, chc_span, naive_values, naive_bits, naive_span = run_once(
        benchmark, experiment
    )

    import numpy as np

    chc_median = float(np.median(chc_values))
    naive_median = float(np.median(naive_values))
    chc_gbps = chc_bits / chc_span / 1000.0
    naive_gbps = naive_bits / naive_span / 1000.0

    table = ResultTable(
        title="Operation offloading vs naive read-modify-write (2 NAT instances)",
        headers=["approach", "median pkt latency (us)", "aggregate Gbps"],
    )
    table.add("CHC offload", f"{chc_median:.1f}", f"{chc_gbps:.2f}")
    table.add("naive lock/r/w/unlock", f"{naive_median:.1f}", f"{naive_gbps:.2f}")
    table.add("ratio", f"{naive_median / chc_median:.2f}x", f"{chc_gbps / max(naive_gbps, 1e-9):.2f}x")
    table.note(f"paper: naive median 2.17X worse (64.6us vs 29.7us); CHC throughput >2X")
    write_result("offload", [table])

    assert naive_median > 1.5 * chc_median
    assert chc_gbps > naive_gbps
