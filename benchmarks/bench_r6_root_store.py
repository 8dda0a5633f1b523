"""§7.3 R6 — root failover cost.

Paper: "Recovering a root requires just reading the last updated logical
clock from the datastore and flow mapping from downstream NFs. This
takes < 41.2us."
"""

from conftest import run_once
from repro.bench.report import ResultTable, write_result
from repro.core.chain_runtime import ChainRuntime
from repro.core.dag import LogicalChain
from repro.core.recovery import fail_over_root
from repro.nfs import Nat
from repro.simnet.engine import Simulator
from repro.traffic.trace import make_trace2
from repro.traffic.workload import ReplaySource

PAPER_US = 41.2


def test_r6_root_recovery_time(benchmark):
    def experiment():
        sim = Simulator()
        chain = LogicalChain("r6root")
        chain.add_vertex("nat", Nat, parallelism=2, entry=True)
        runtime = ChainRuntime(sim, chain)
        trace = make_trace2(scale=0.0005)
        outcome = {}

        def crash():
            yield sim.timeout(4_000.0)
            runtime.root.fail()
            result = yield from fail_over_root(runtime)
            outcome["recovery"] = result

        sim.process(crash())
        ReplaySource(sim, trace.packets, runtime.inject, load_fraction=0.3)
        sim.run(until=300_000_000)
        outcome["runtime"] = runtime
        return outcome

    outcome = run_once(benchmark, experiment)
    recovery = outcome["recovery"]
    runtime = outcome["runtime"]

    table = ResultTable(
        title="R6 — root failover",
        headers=["metric", "measured", "paper"],
    )
    table.add("recovery time (us)", f"{recovery.duration_us:.1f}", f"< {PAPER_US}")
    table.add("clock resumed past", recovery.resumed_sequence, "persisted + n")
    table.add("allocations queried", recovery.allocations, "downstream NFs")
    table.note("packets arriving during recovery are buffered and processed after")
    write_result("r6_root_recovery", [table])

    assert recovery.duration_us < 3 * PAPER_US
    assert runtime.root.stats.injected > 0
