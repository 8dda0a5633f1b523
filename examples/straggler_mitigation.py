#!/usr/bin/env python
"""Straggler mitigation demo (R5, §5.3): clone, replay, retain.

A NAT instance becomes slow (resource contention adds 3-10us per packet).
The framework clones it: the clone starts from the straggler's latest
externalized state, the root replays in-flight packets to it, and live
traffic is replicated to both while the clone catches up. Every duplicate
this creates — duplicate outputs, duplicate state updates, duplicate
upstream processing — is suppressed by the queue filters and the store's
clock-keyed update log. Finally the faster instance is retained.

The demo verifies the R5 property: the downstream portscan detector sees
every packet exactly once and the chain's state equals a run with no
straggler at all.

Run:  python examples/straggler_mitigation.py
"""

import random

from repro.core.chain_runtime import ChainRuntime
from repro.core.cloning import CloneController
from repro.core.dag import LogicalChain
from repro.nfs import Nat, PortscanDetector
from repro.simnet.engine import Simulator
from repro.store.keys import StateKey
from repro.traffic.packet import FiveTuple, Packet

N_PACKETS = 600


def run(with_straggler: bool):
    sim = Simulator()
    chain = LogicalChain("straggler")
    chain.add_vertex("nat", Nat, entry=True)
    chain.add_vertex("scan", PortscanDetector)
    chain.add_edge("nat", "scan")
    runtime = ChainRuntime(sim, chain)

    session_box = {}
    controller = CloneController(runtime)

    if with_straggler:
        rng = random.Random(4)
        runtime.instances["nat-0"].extra_delay = lambda: 3.0 + rng.random() * 7.0

    def source():
        for index in range(N_PACKETS):
            runtime.inject(
                Packet(FiveTuple(f"10.0.6.{index % 9}", "52.0.0.1", 4000 + (index % 9), 80))
            )
            yield sim.timeout(2.5)
            if with_straggler and index == 120:
                def mitigate():
                    session_box["s"] = yield from controller.mitigate("nat-0")
                sim.process(mitigate())
            if with_straggler and index == 420:
                def resolve():
                    session = session_box["s"]
                    yield from controller.retain(session, controller.pick_faster(session))
                sim.process(resolve())

    sim.process(source())
    sim.run(until=120_000_000)

    def peek(vertex, obj):
        key = StateKey(vertex, obj).storage_key()
        return runtime.store.instance_for_key(key).peek(key)

    scan = runtime.instances_of("scan")[0]
    return {
        "nat total_packets": peek("nat", "total_packets"),
        "scan processed": scan.stats.processed,
        "scan duplicates": scan.stats.duplicates_seen,
        "dups suppressed by framework": runtime.duplicates_suppressed,
        "store updates emulated": sum(s.stats.ops_emulated for s in runtime.stores),
        "session": session_box.get("s"),
    }


def main() -> None:
    baseline = run(with_straggler=False)
    mitigated = run(with_straggler=True)
    session = mitigated.pop("session")
    baseline.pop("session")

    print(f"{'metric':<32} {'no straggler':>14} {'straggler+clone':>16}")
    for key in baseline:
        print(f"{key:<32} {baseline[key]!s:>14} {mitigated[key]!s:>16}")
    print(f"\nclone session: {session.straggler_id} cloned as {session.clone_id}, "
          f"{session.replayed} packets replayed, retained {session.resolved}")
    ok = (
        baseline["nat total_packets"] == mitigated["nat total_packets"] == N_PACKETS
        and mitigated["scan processed"] == N_PACKETS
        and mitigated["scan duplicates"] == 0
    )
    print(f"\nR5 (duplicate suppression) holds: {'YES' if ok else 'NO'}")


if __name__ == "__main__":
    main()
