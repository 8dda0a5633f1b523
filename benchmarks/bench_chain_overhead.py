"""§7.1 chain overhead — CHC chain vs traditional NFs end to end.

Paper: "We constructed a simple chain consisting of one instance each of
NAT, portscan detector and load balancer in sequence, and the Trojan
detector operating off-path attached to the NAT. With model #3, the
median end-to-end overhead was 11.3usec compared to using traditional
NFs."
"""

from conftest import run_once
from repro.baselines.traditional import TraditionalChain
from repro.bench.calibration import bench_scale
from repro.bench.report import ResultTable, write_result
from repro.bench.scenarios import build_paper_chain
from repro.nfs import LoadBalancer, Nat, PortscanDetector
from repro.simnet.engine import Simulator
from repro.traffic.trace import make_trace2
from repro.traffic.workload import ReplaySource

PAPER_OVERHEAD_US = 11.3


def test_chain_overhead(benchmark):
    trace = make_trace2(scale=bench_scale())

    def experiment():
        chc_sim = Simulator()
        chc = build_paper_chain(chc_sim)
        ReplaySource(chc_sim, trace.packets, chc.inject, load_fraction=0.5)
        chc_sim.run(until=300_000_000)

        trad_sim = Simulator()
        trad = TraditionalChain(
            trad_sim, [Nat(), PortscanDetector(), LoadBalancer()]
        )
        ReplaySource(trad_sim, trace.packets, trad.inject, load_fraction=0.5)
        trad_sim.run(until=300_000_000)
        return chc, trad

    chc, trad = run_once(benchmark, experiment)

    chc_median = chc.egress_recorder.median()
    trad_median = trad.egress_recorder.median()
    overhead = chc_median - trad_median

    table = ResultTable(
        title="Chain end-to-end latency: CHC (model #3) vs traditional NFs",
        headers=["chain", "pkts", "median e2e (us)", "p95 (us)"],
    )
    table.add("traditional", trad.egress_meter.packets,
              f"{trad_median:.1f}", f"{trad.egress_recorder.percentile(95):.1f}")
    table.add("CHC", chc.egress_meter.packets,
              f"{chc_median:.1f}", f"{chc.egress_recorder.percentile(95):.1f}")
    table.add("overhead", "-", f"{overhead:.1f}", "-")
    table.note(f"paper: median end-to-end overhead ~{PAPER_OVERHEAD_US}us (model #3)")
    table.note("the CHC chain additionally runs the off-path trojan detector")
    write_result("chain_overhead", [table])

    assert chc.egress_meter.packets >= len(trace)
    # overhead is small: same order as the paper's ~11us, far below one RTT
    assert overhead < 30.0
