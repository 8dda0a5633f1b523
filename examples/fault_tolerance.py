#!/usr/bin/env python
"""Fault-tolerance demo (R1/R6): crash an NF mid-run, fail over, verify COE.

Runs the same workload twice through a two-NF chain:

1. a clean run, recording the final chain-wide state;
2. a run where the first NF fail-stops a third of the way in — the
   framework launches a replacement, re-associates state ownership with
   one metadata message, and replays the root's packet log through the
   chain (duplicates suppressed by the store's clock log).

The demo then compares final state: chain output equivalence means the
crash must be invisible in the numbers.

Run:  python examples/fault_tolerance.py
"""

from repro.core.chain_runtime import ChainRuntime
from repro.core.dag import LogicalChain
from repro.core.nf_api import NetworkFunction, Output
from repro.core.recovery import fail_over_nf
from repro.simnet.engine import Simulator
from repro.store.keys import StateKey
from repro.store.spec import AccessPattern, Scope, StateObjectSpec
from repro.traffic.packet import FiveTuple, Packet


class CountingNF(NetworkFunction):
    name = "counter"

    def state_specs(self):
        return {
            "per_flow": StateObjectSpec(
                "per_flow", Scope.PER_FLOW, AccessPattern.READ_WRITE_OFTEN, initial_value=0
            ),
            "total": StateObjectSpec(
                "total", Scope.CROSS_FLOW, AccessPattern.WRITE_MOSTLY, (), initial_value=0
            ),
        }

    def process(self, packet, state):
        yield from state.update("per_flow", packet.five_tuple.canonical().key(), "incr", 1)
        yield from state.update("total", None, "incr", 1)
        return [Output(packet)]


class SinkNF(NetworkFunction):
    name = "sink"

    def state_specs(self):
        return {
            "seen": StateObjectSpec(
                "seen", Scope.CROSS_FLOW, AccessPattern.WRITE_MOSTLY, (), initial_value=0
            )
        }

    def process(self, packet, state):
        yield from state.update("seen", None, "incr", 1)
        return [Output(packet)]


N_PACKETS = 150


def build(sim):
    chain = LogicalChain("ft")
    chain.add_vertex("counter", CountingNF, entry=True)
    chain.add_vertex("sink", SinkNF)
    chain.add_edge("counter", "sink")
    return ChainRuntime(sim, chain)


def run(crash: bool):
    sim = Simulator()
    runtime = build(sim)
    recovery = {}

    def source():
        for index in range(N_PACKETS):
            runtime.inject(
                Packet(FiveTuple(f"10.0.7.{index % 6}", "52.0.0.1", 6000 + (index % 6), 80))
            )
            yield sim.timeout(3.0)
            if crash and index == N_PACKETS // 3:
                runtime.instances["counter-0"].fail()

                def recover():
                    outcome = yield from fail_over_nf(runtime, "counter-0")
                    recovery["result"] = outcome

                sim.process(recover())

    sim.process(source())
    sim.run(until=60_000_000)

    def peek(vertex, obj):
        key = StateKey(vertex, obj).storage_key()
        return runtime.store.instance_for_key(key).peek(key)

    return {
        "counter.total": peek("counter", "total"),
        "sink.seen": peek("sink", "seen"),
        "deleted": runtime.root.stats.deleted,
        "log": len(runtime.root.log),
        "recovery": recovery.get("result"),
    }


def main() -> None:
    clean = run(crash=False)
    crashed = run(crash=True)

    recovery = crashed.pop("recovery")
    clean.pop("recovery")
    print(f"{'metric':<16} {'clean run':>10} {'crash+failover':>15}")
    for key in clean:
        print(f"{key:<16} {clean[key]!s:>10} {crashed[key]!s:>15}")
    print(f"\nfailover: {recovery.failed_id} -> {recovery.new_id}, "
          f"{recovery.replayed} packets replayed, "
          f"{recovery.state_keys_taken} state keys re-associated, "
          f"{recovery.duration_us:.1f}us")
    equivalent = all(clean[k] == crashed[k] for k in clean)
    print(f"\nchain output equivalence: {'HOLDS' if equivalent else 'VIOLATED'}")


if __name__ == "__main__":
    main()
