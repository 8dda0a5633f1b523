#!/usr/bin/env python
"""Chain-wide ordering demo (R4): the Figure 2 trojan-detection chain.

Builds firewall -> scrubbers -> off-path trojan detector, injects trojan
signatures (SSH, then FTP, then IRC from the same host) plus decoy hosts
doing the same activities out of order, then slows one scrubber so the
detector sees a *reordered* copy of the traffic.

Run twice — once with the detector reasoning over CHC's logical clocks,
once over local arrival order — and compare detections. This is the §7.3
R4 experiment in miniature: clocks recover the true input order that the
slow upstream NF destroyed.

Run:  python examples/trojan_chain.py
"""

import random

from repro.bench.scenarios import build_trojan_chain
from repro.simnet.engine import Simulator
from repro.traffic.packet import PORT_FTP, FiveTuple, Packet
from repro.traffic.trace import make_trace2
from repro.traffic.trojan import inject_trojan_signatures
from repro.traffic.workload import ReplaySource


def run(use_clocks: bool, seed: int = 3):
    sim = Simulator()
    runtime = build_trojan_chain(sim, use_clocks=use_clocks)

    base = make_trace2(scale=0.0015, seed=seed)
    scenario = inject_trojan_signatures(
        base, n_signatures=5, n_decoys=4, seed=seed, separation=25
    )

    # Resource contention at the FTP scrubber: 50-100us extra per packet.
    rng = random.Random(seed)
    splitter = runtime.splitter("scrubber")
    probe = Packet(FiveTuple("172.16.0.1", "52.99.0.1", 30000, PORT_FTP))
    slow_instance = splitter.route(probe)[0]
    runtime.instances[slow_instance].extra_delay = lambda: 50.0 + rng.random() * 50.0

    ReplaySource(sim, scenario.trace.packets, runtime.inject, load_fraction=0.5)
    sim.run(until=300_000_000)
    detector = runtime.instances_of("trojan")[0].nf
    return scenario, detector


def main() -> None:
    for use_clocks in (True, False):
        label = "CHC logical clocks" if use_clocks else "local arrival order"
        scenario, detector = run(use_clocks=use_clocks)
        infected = set(scenario.infected_hosts)
        detected = set(detector.detections)
        found = sorted(infected & detected)
        missed = sorted(infected - detected)
        false_positives = sorted(detected & set(scenario.decoy_hosts))
        print(f"\n=== detector using {label} ===")
        print(f"signatures injected : {len(infected)}")
        print(f"detected            : {len(found)}  {found}")
        print(f"missed              : {len(missed)}  {missed}")
        print(f"decoys flagged      : {len(false_positives)}  {false_positives}")


if __name__ == "__main__":
    main()
