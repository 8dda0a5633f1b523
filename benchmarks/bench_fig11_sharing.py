"""Figure 11 / R3 — strongly consistent shared state: CHC vs OpenNF.

Paper: with updates to shared NAT state serialized in a global order
across two instances, CHC's median per-packet latency is 99% lower than
OpenNF's (1.8us vs 0.166ms). OpenNF's controller receives every packet,
forwards it to every instance and releases it only after all ACK; CHC's
store simply serializes the offloaded operations.
"""

import numpy as np

from conftest import run_once
from repro.baselines.opennf import OpenNfController, OpenNfSharedStateHarness
from repro.bench.report import ResultTable, write_result
from repro.core.chain_runtime import ChainRuntime
from repro.core.dag import LogicalChain
from repro.nfs import Nat
from repro.simnet.engine import Simulator
from repro.util import stable_hash

PAPER = {"chc_median": 1.8, "opennf_median": 166.0}


# Workload: Figure 11 compares *latency disciplines*, so both systems must
# be inside their capacity region — OpenNF's mediation path serializes a
# flow's packets at ~168us each, so per-flow inter-packet spacing must
# exceed that. 64 concurrent flows round-robin at 35us per packet give
# every flow ~2.2ms between its packets; CHC runs the same workload.
N_FLOWS = 64
N_PACKETS = 6_000
INTERVAL_US = 35.0


def fig11_packets():
    from repro.traffic.packet import FiveTuple, Packet

    out = []
    for index in range(N_PACKETS):
        flow = index % N_FLOWS
        out.append(
            Packet(FiveTuple(f"10.0.5.{flow % 120}", "52.0.0.9", 7000 + flow, 80))
        )
    return out


def paced_source(sim, packets, sink):
    def body():
        for packet in packets:
            packet.ingress_time = sim.now
            sink(packet)
            yield sim.timeout(INTERVAL_US)

    sim.process(body())


def test_fig11_shared_state_consistency(benchmark):
    def experiment():
        # --- CHC: two NAT instances, offloaded serialized updates --------
        chc_sim = Simulator()
        chain = LogicalChain("fig11")
        chain.add_vertex("nat", Nat, parallelism=2, entry=True)
        chc = ChainRuntime(chc_sim, chain)  # EO+C+NA defaults
        paced_source(chc_sim, fig11_packets(), chc.inject)
        chc_sim.run(until=600_000_000)
        chc_values = [v for i in chc.instances_of("nat") for v in i.recorder.values]

        # --- OpenNF: controller-mediated strong consistency --------------
        onf_sim = Simulator()
        controller = OpenNfController(onf_sim, n_instances=2)
        instances = [
            OpenNfSharedStateHarness(onf_sim, Nat(), controller, name=f"onf-{k}")
            for k in range(2)
        ]

        def split(packet):
            instances[stable_hash(packet.five_tuple.canonical().key()) % 2].inject(packet)

        paced_source(onf_sim, fig11_packets(), split)
        onf_sim.run(until=600_000_000)
        onf_values = [v for i in instances for v in i.sojourn.values]
        return chc_values, onf_values

    chc_values, onf_values = run_once(benchmark, experiment)
    chc_median = float(np.median(chc_values))
    onf_median = float(np.median(onf_values))

    table = ResultTable(
        title="Figure 11 — per-packet latency with strongly consistent shared state",
        headers=["system", "p25", "median", "p75", "p95", "paper median"],
    )
    for name, values, paper in (
        ("CHC", chc_values, PAPER["chc_median"]),
        ("OpenNF", onf_values, PAPER["opennf_median"]),
    ):
        table.add(
            name,
            f"{np.percentile(values, 25):.1f}",
            f"{np.median(values):.1f}",
            f"{np.percentile(values, 75):.1f}",
            f"{np.percentile(values, 95):.1f}",
            f"{paper}",
        )
    reduction = 100.0 * (1 - chc_median / onf_median)
    table.add("reduction", "-", f"{reduction:.0f}%", "-", "-", "99%")
    write_result("fig11_sharing", [table])

    assert chc_median < 5.0
    assert onf_median > 50 * chc_median
