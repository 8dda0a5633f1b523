"""CHC reproduction: correctness and performance for stateful chained NFs.

A functional, discrete-event reproduction of the NSDI 2019 paper
"Correctness and Performance for Stateful Chained Network Functions"
(Khalid & Akella). See README.md for a tour and DESIGN.md for the
paper-to-module mapping.

Quickstart::

    from repro.core.chain_runtime import ChainRuntime
    from repro.core.dag import LogicalChain
    from repro.nfs import Nat, PortscanDetector
    from repro.simnet.engine import Simulator
    from repro.traffic.trace import make_trace2
    from repro.traffic.workload import ReplaySource

    sim = Simulator()
    chain = LogicalChain("demo")
    chain.add_vertex("nat", Nat, entry=True)
    chain.add_vertex("scan", PortscanDetector)
    chain.add_edge("nat", "scan")
    runtime = ChainRuntime(sim, chain)
    trace = make_trace2(scale=0.001)
    ReplaySource(sim, trace.packets, runtime.inject, load_fraction=0.5)
    sim.run()
    print(runtime.egress_recorder.summary())

Packages re-export nothing (only :mod:`repro.nfs` and :mod:`repro.bench`
do): callers name the submodule, so a process loads only the layer it
runs — a store node never loads the chain (DESIGN.md §9.1).
"""

__version__ = "1.0.0"
