"""Figure 8 — per-packet processing time under the externalization models.

Paper: 5/25/50/75/95th percentile packet processing times for NAT,
portscan detector, trojan detector and load balancer under T (traditional)
/ EO / EO+C / EO+C+NA. Key results being reproduced:

* NAT: T median 2.07us; EO ~ +190us (3 store RTTs/packet); caching removes
  the port-map read; no-ACK-wait brings the median back to ~2.6us.
* load balancer: same pattern one RTT smaller (2 RTTs under EO).
* portscan/trojan detectors: no noticeable impact under any model (they
  do not update state on every packet).
"""

import pytest

from conftest import run_once
from repro.bench.calibration import MODELS, bench_scale
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

PAPER_MEDIANS_US = {
    # from §7.1's prose: traditional medians and the per-model deltas
    ("nat", "T"): 2.07,
    ("nat", "EO"): 192.74,
    ("nat", "EO+C"): 80.76,
    ("nat", "EO+C+NA"): 2.61,
    ("lb", "T"): 2.25,
    ("lb", "EO"): 112.12,
    ("lb", "EO+C"): 56.18,
    ("lb", "EO+C+NA"): 2.27,
}


@pytest.mark.parametrize("nf_name", list(NFS))
def test_fig08_processing_time_percentiles(benchmark, nf_name):
    trace = make_trace2(scale=bench_scale())

    def experiment():
        return {
            model: run_single_nf(NFS[nf_name], model, trace, load_fraction=0.5)
            for model in MODELS
        }

    results = run_once(benchmark, experiment)

    table = ResultTable(
        title=f"Figure 8 — {nf_name}: packet processing time (us)",
        headers=["model", "p5", "p25", "p50", "p75", "p95", "paper p50"],
    )
    for model in MODELS:
        summary = results[model].recorder.summary()
        paper = PAPER_MEDIANS_US.get((nf_name, model))
        table.add(
            model,
            f"{summary[5.0]:.2f}",
            f"{summary[25.0]:.2f}",
            f"{summary[50.0]:.2f}",
            f"{summary[75.0]:.2f}",
            f"{summary[95.0]:.2f}",
            f"{paper:.2f}" if paper else "~T" if model != "EO" else "~T",
        )
    table.note(
        "shape check: EO >> EO+C >> EO+C+NA ~= T for NAT/LB; "
        "scan/trojan unaffected (no per-packet state updates)"
    )
    write_result(f"fig08_{nf_name}", [table])

    medians = {model: results[model].recorder.median() for model in MODELS}
    if nf_name in ("nat", "lb"):
        assert medians["EO"] > 10 * medians["T"]
        assert medians["EO"] > medians["EO+C"] > medians["EO+C+NA"]
        assert medians["EO+C+NA"] < medians["T"] + 1.0  # small overhead
    else:
        for model in MODELS:
            assert medians[model] < medians["T"] + 1.5
