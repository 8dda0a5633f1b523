#!/usr/bin/env python
"""Elastic scaling demo (R2): reallocate live flows with the Figure 4
handover protocol.

Runs a two-instance flow-counting NF, then — while traffic is flowing —
moves every flow off instance 0 onto a freshly added scale-up instance.
Afterwards it verifies the two properties §5.1 promises:

* loss-freeness — every packet's update is in the store, including the
  packets that were in transit to the old instance at move time;
* the move itself took tens of microseconds, because only *operations*
  were flushed and ownership moved as one bulk metadata message (no state
  was serialized or copied, unlike OpenNF's multi-millisecond move).

Run:  python examples/elastic_scaling.py
"""

from repro.core.chain_runtime import ChainRuntime
from repro.core.dag import LogicalChain
from repro.core.handover import move_flows
from repro.core.nf_api import NetworkFunction, Output
from repro.simnet.engine import Simulator
from repro.store.spec import AccessPattern, Scope, StateObjectSpec
from repro.traffic.packet import FiveTuple, Packet


class FlowCounter(NetworkFunction):
    """Counts packets per flow (per-flow cached state)."""

    name = "flowcounter"

    def state_specs(self):
        return {
            "hits": StateObjectSpec(
                "hits", Scope.PER_FLOW, AccessPattern.READ_WRITE_OFTEN, initial_value=0
            )
        }

    def process(self, packet, state):
        yield from state.update("hits", packet.five_tuple.canonical().key(), "incr", 1)
        return [Output(packet)]


N_FLOWS = 8
PACKETS_PER_FLOW = 200


def main() -> None:
    sim = Simulator()
    chain = LogicalChain("scaling")
    chain.add_vertex("fc", FlowCounter, parallelism=2, entry=True)
    runtime = ChainRuntime(sim, chain)
    splitter = runtime.splitter("fc")

    def packet(flow: int) -> Packet:
        return Packet(FiveTuple(f"10.0.9.{flow}", "52.0.0.1", 5000 + flow, 80))

    results = {}

    def source():
        for round_ in range(PACKETS_PER_FLOW):
            for flow in range(N_FLOWS):
                runtime.inject(packet(flow))
                yield sim.timeout(1.5)
            if round_ == PACKETS_PER_FLOW // 3:
                # Scale up: new instance + reallocate fc-0's flows to it.
                scale_up = runtime.add_instance("fc", "2")
                moved_keys = [
                    splitter.key_of(packet(flow))
                    for flow in range(N_FLOWS)
                    if splitter.current_instance_for(splitter.key_of(packet(flow)))
                    == "fc-0"
                ]
                results["n_moved"] = len(moved_keys)

                def mover():
                    outcome = yield from move_flows(
                        runtime, "fc", moved_keys, scale_up.instance_id
                    )
                    results["move"] = outcome

                sim.process(mover())

    sim.process(source())
    sim.run(until=60_000_000)

    move = results["move"]
    print(f"moved {move.n_keys} flows to {move.new_instance} "
          f"in {move.duration_us:.1f}us ({move.n_markers} marker(s))")

    print(f"\n{'instance':<8} {'processed':>9}")
    for instance in runtime.instances_of("fc"):
        print(f"{instance.instance_id:<8} {instance.stats.processed:>9}")

    store = runtime.stores[0]
    print(f"\n{'flow':<12} {'store count':>11} {'owner':>8}")
    all_exact = True
    for flow in range(N_FLOWS):
        key = [k for k in store.keys() if f"10.0.9.{flow}|" in k][0]
        count = store.peek(key)
        all_exact &= count == PACKETS_PER_FLOW
        print(f"10.0.9.{flow:<5} {count:>11} {store.owner_of(key):>8}")
    print(f"\nloss-free: {'YES' if all_exact else 'NO'} "
          f"(every flow's count == {PACKETS_PER_FLOW})")


if __name__ == "__main__":
    main()
