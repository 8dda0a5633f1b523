"""Benchmark harness helpers.

* :mod:`~repro.bench.calibration` — the calibrated simulation constants
  and the §7.1 externalization-model factory.
* :mod:`~repro.bench.scenarios` — reusable experiment builders (single-NF
  runs under each model, the paper's 4-NF chain, the Figure 2 trojan
  chain).
* :mod:`~repro.bench.report` — paper-vs-measured tables, written both to
  stdout and to ``benchmarks/results/``.
"""

from repro.bench.calibration import (
    MODELS,
    bench_scale,
    params_for_model,
)
from repro.bench.report import ResultTable, results_dir, write_result
from repro.bench.scenarios import (
    SingleNfResult,
    build_paper_chain,
    build_trojan_chain,
    run_single_nf,
)

__all__ = [
    "MODELS",
    "ResultTable",
    "SingleNfResult",
    "bench_scale",
    "build_paper_chain",
    "build_trojan_chain",
    "params_for_model",
    "results_dir",
    "run_single_nf",
    "write_result",
]
