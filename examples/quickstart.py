#!/usr/bin/env python
"""Quickstart: build and run the paper's evaluation chain.

Constructs the §7.1 chain — NAT -> portscan detector -> load balancer,
with the trojan detector off-path on a copy of the NAT's traffic — runs a
synthetic campus-to-EC2 trace through it at 50% of line rate, and prints
per-NF processing latency, chain latency, goodput, and the root's
correctness bookkeeping.

Run:  python examples/quickstart.py
"""

from repro.core.chain_runtime import ChainRuntime
from repro.core.dag import LogicalChain
from repro.nfs import LoadBalancer, Nat, PortscanDetector, TrojanDetector
from repro.simnet.engine import Simulator
from repro.traffic.trace import make_trace2
from repro.traffic.workload import ReplaySource


def main() -> None:
    sim = Simulator()

    # 1. Define the logical chain (the operator-facing DAG API, §3).
    chain = LogicalChain("quickstart")
    chain.add_vertex("nat", Nat, entry=True)
    chain.add_vertex("scan", PortscanDetector)
    chain.add_vertex("lb", LoadBalancer)
    chain.add_vertex("trojan", TrojanDetector)
    chain.add_edge("nat", "scan")
    chain.add_edge("scan", "lb")
    chain.add_edge("nat", "trojan", mirror=True)  # off-path copy of traffic

    # 2. Compile it into a physical chain: store, root, instances, splitters.
    runtime = ChainRuntime(sim, chain)

    # 3. Replay a synthetic Trace2 analogue at 50% of the 10G line rate.
    trace = make_trace2(scale=0.002)
    print(f"trace: {trace.stats()}")
    ReplaySource(sim, trace.packets, runtime.inject, load_fraction=0.5)

    # 4. Run the simulation to completion.
    sim.run(until=120_000_000)

    # 5. Report.
    print(f"\n{'NF instance':<12} {'processed':>9} {'median':>9} {'p95':>9}")
    for instance_id, instance in sorted(runtime.instances.items()):
        summary = instance.recorder.summary((50, 95))
        print(
            f"{instance_id:<12} {instance.stats.processed:>9} "
            f"{summary[50.0]:>8.2f}u {summary[95.0]:>8.2f}u"
        )

    print(f"\nchain egress: {runtime.egress_meter.packets} pkts, "
          f"{runtime.egress_meter.gbps():.2f} Gbps goodput")
    print(f"end-to-end latency: median {runtime.egress_recorder.median():.1f}us")
    print(f"root: {runtime.root.stats.injected} injected, "
          f"{runtime.root.stats.deleted} deleted, "
          f"{len(runtime.root.log)} still logged")

    nat_store = runtime.stores[0]
    total_key = [k for k in nat_store.keys() if "total_packets" in k]
    if total_key:
        print(f"NAT total_packets (externalized in the store): "
              f"{nat_store.peek(total_key[0])}")


if __name__ == "__main__":
    main()
