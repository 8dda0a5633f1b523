"""Figure 10 — per-instance throughput under the externalization models.

Paper: max per-NF throughput for traditional NFs ~9.5Gbps. Under EO the
load balancer and NAT drop to ~0.5Gbps (every packet blocks on store
RTTs); the portscan and trojan detectors are unaffected. EO+C+NA restores
~9.43Gbps for all NFs.
"""

from conftest import run_once
from repro.bench.calibration import bench_scale
from repro.bench.report import ResultTable, write_result
from repro.bench.scenarios import run_single_nf
from repro.nfs import LoadBalancer, Nat, PortscanDetector, TrojanDetector
from repro.traffic.trace import make_trace2

NFS = {
    "nat": Nat,
    "portscan": PortscanDetector,
    "trojan": TrojanDetector,
    "lb": LoadBalancer,
}
MODELS = ("T", "EO", "EO+C+NA")

PAPER_GBPS = {
    ("nat", "T"): 9.5, ("nat", "EO"): 0.5, ("nat", "EO+C+NA"): 9.43,
    ("lb", "T"): 9.5, ("lb", "EO"): 0.5, ("lb", "EO+C+NA"): 9.43,
    ("portscan", "T"): 9.5, ("portscan", "EO"): 9.4, ("portscan", "EO+C+NA"): 9.4,
    ("trojan", "T"): 9.5, ("trojan", "EO"): 9.4, ("trojan", "EO+C+NA"): 9.4,
}


def goodput(result):
    """Gbps over the instance's actual processing span."""
    meter = (result.harness or result.runtime.instances_of("nf")[0]).throughput
    if meter.first_at is None or meter.last_at is None or meter.last_at <= meter.first_at:
        return 0.0
    return meter.bits / (meter.last_at - meter.first_at) / 1000.0


def test_fig10_throughput(benchmark):
    trace = make_trace2(scale=bench_scale())

    def experiment():
        results = {}
        for nf_name, factory in NFS.items():
            for model in MODELS:
                # open-loop at full line rate: the NF drains as fast as it can
                results[(nf_name, model)] = run_single_nf(
                    factory, model, trace, load_fraction=1.0
                )
        return results

    results = run_once(benchmark, experiment)

    table = ResultTable(
        title="Figure 10 — per-instance throughput (Gbps)",
        headers=["NF", "T", "EO", "EO+C+NA", "paper (T/EO/NA)"],
    )
    measured = {}
    for nf_name in NFS:
        row = [nf_name]
        for model in MODELS:
            gbps = goodput(results[(nf_name, model)])
            measured[(nf_name, model)] = gbps
            row.append(f"{gbps:.2f}")
        row.append(
            f"{PAPER_GBPS[(nf_name, 'T')]}/{PAPER_GBPS[(nf_name, 'EO')]}/"
            f"{PAPER_GBPS[(nf_name, 'EO+C+NA')]}"
        )
        table.add(*row)
    table.note("shape: EO collapses NAT/LB an order of magnitude; detectors unaffected")
    write_result("fig10_throughput", [table])

    for nf_name in ("nat", "lb"):
        assert measured[(nf_name, "T")] > 8.5
        assert measured[(nf_name, "EO")] < measured[(nf_name, "T")] / 3
        assert measured[(nf_name, "EO+C+NA")] > 8.5
    for nf_name in ("portscan", "trojan"):
        assert measured[(nf_name, "EO")] > 8.0
