"""Calibrated simulation constants (DESIGN.md §4).

Calibration anchors, all from the paper:

* traditional NF: median per-packet processing ≈ 2.1µs, per-instance
  throughput ≈ 9.5Gbps (Figures 8, 10);
* one blocking store access, uncontended ≈ 29µs (§7.2 clock persistence);
* store instance ≈ 5.1M ops/s over 4 threads (§7.1).

Everything else follows from the protocols. ``params_for_model`` builds
the §7.1 externalization models:

====== ===========================================================
T        traditional NF (local state; separate harness, no store)
EO       externalized state, non-blocking ops, ACKs awaited
EO+C     + Table 1 caching
EO+C+NA  + no ACK wait (framework handles retransmission) — CHC's
         default configuration
====== ===========================================================
"""

from __future__ import annotations

import os

from repro.core.chain_runtime import RuntimeParams

MODELS = ("T", "EO", "EO+C", "EO+C+NA")


def params_for_model(model: str, **overrides) -> RuntimeParams:
    """RuntimeParams for one of the §7.1 externalization models."""
    if model == "EO":
        config = dict(caching_enabled=False, wait_for_acks=True)
    elif model == "EO+C":
        config = dict(caching_enabled=True, wait_for_acks=True)
    elif model == "EO+C+NA":
        config = dict(caching_enabled=True, wait_for_acks=False)
    elif model == "T":
        raise ValueError(
            "the traditional model runs on TraditionalNFHarness, not ChainRuntime"
        )
    else:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    config.update(overrides)
    return RuntimeParams(**config)


def bench_scale(default: float = 0.002) -> float:
    """Trace scale for benchmarks; override with REPRO_BENCH_SCALE.

    0.002 means ~12.8K packets of the Trace2 analogue per run — enough for
    stable percentiles while keeping a full benchmark pass to minutes.
    """
    return float(os.environ.get("REPRO_BENCH_SCALE", default))
