#!/usr/bin/env python
"""Run the engine microbenchmarks and record ``BENCH_engine.json``.

This is the perf trajectory artifact for the simulator overhaul: it runs
every scenario in ``benchmarks/bench_engine_micro.py`` against both the
current engine and the legacy (seed) snapshot, prints a table, and writes
the machine-readable payload to ``BENCH_engine.json`` at the repo root.

Usage::

    PYTHONPATH=src python tools/perf_report.py            # full sizes
    PYTHONPATH=src python tools/perf_report.py --smoke    # CI-sized
    PYTHONPATH=src python tools/perf_report.py -o out.json

The acceptance bars are >=2x event throughput vs the seed on
``channel_churn`` and ``timer_storm`` at full size, and — one rule, for
``--check`` and ``--quick`` alike — a ``chain_pipeline`` fast-path
speedup (fastpath off vs on, same machine) no more than 20% below the
committed ``BENCH_engine.json`` figure. The fast-path bar is relative
because every general-path win narrows that ratio (the off side has more
to gain): an absolute 2x would have to be re-argued by each of them.
``--check`` makes the exit status enforce the bars (used by the release
checklist, not CI — CI machines are too noisy for a hard wall-clock gate).

``--quick`` is the CI perf-smoke mode: it runs only ``chain_pipeline``
(off vs on) at reduced size against the same floor. The gate compares the
off/on *ratio*, not raw seconds — the ratio is same-machine relative, so
it transfers across CI hosts where absolute wall-clock does not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Optional, Tuple

import _bootstrap

_bootstrap.ensure_repro_importable()
_bootstrap.ensure_benchmarks_importable()

REPO_ROOT = _bootstrap.REPO_ROOT

COMMITTED = os.path.join(REPO_ROOT, "BENCH_engine.json")

# vs the seed engine, full size
ACCEPTANCE = {"channel_churn": 2.0, "timer_storm": 2.0}

# Tolerated relative drop of the chain_pipeline fast-path speedup vs the
# committed BENCH_engine.json (--check at full size, --quick in CI).
FASTPATH_TOLERANCE = 0.20
QUICK_KWARGS = dict(packets=600, flows=50)


def fastpath_floor(baseline_path: str) -> Optional[Tuple[float, float]]:
    """``(committed chain_pipeline speedup, the floor it implies)``, or
    None (after saying why) when there is no usable baseline."""
    try:
        with open(baseline_path) as fh:
            committed = json.load(fh)["scenarios"]["chain_pipeline"]["speedup"]
    except (OSError, KeyError, ValueError) as exc:
        print(f"no usable chain_pipeline baseline ({exc})")
        return None
    return committed, committed * (1.0 - FASTPATH_TOLERANCE)


def build_payload(smoke: bool, repeats: int, jobs: str = "1") -> dict:
    from bench_engine_micro import run_comparison

    from repro.parallel import resolve_jobs

    payload = run_comparison(smoke=smoke, repeats=repeats, jobs=jobs)
    payload["meta"] = {
        "benchmark": "bench_engine_micro",
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "jobs": resolve_jobs(jobs),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "acceptance": {
            **{name: f">={bar}x" for name, bar in ACCEPTANCE.items()},
            "chain_pipeline": f">={1.0 - FASTPATH_TOLERANCE:.2f} of the committed figure",
        },
    }
    return payload


def render(payload: dict) -> str:
    lines = [
        "engine microbenchmarks (legacy = seed engine snapshot)",
        f"{'scenario':<16} {'units':>8} {'legacy':>10} {'new':>10} {'speedup':>8}",
    ]
    for name, row in payload["scenarios"].items():
        if "legacy_wall_s" in row:
            lines.append(
                f"{name:<16} {row['units']:>8} {row['legacy_wall_s']:>9.4f}s"
                f" {row['new_wall_s']:>9.4f}s {row['speedup']:>7.2f}x"
            )
        else:
            # chain_pipeline: "legacy" column = fastpath off, "new" = on
            fast = row.get("fastpath", {})
            speed = f"{row['speedup']:>7.2f}x" if "speedup" in row else f"{'-':>8}"
            new_wall = (
                f"{fast['wall_s']:>9.4f}s" if fast else f"{row['new_wall_s']:>9.4f}s"
            )
            lines.append(
                f"{name:<16} {row['engine_events']:>8} {row['new_wall_s']:>9.4f}s"
                f" {new_wall} {speed}"
            )
    return "\n".join(lines)


def run_quick(repeats: int, baseline_path: str) -> int:
    """CI perf-smoke: chain_pipeline off/on only, ratio-gated vs baseline."""
    from bench_engine_micro import chain_pipeline

    import repro.simnet.engine as new_engine

    best_off = best_on = float("inf")
    for _ in range(repeats):
        _, wall = chain_pipeline(new_engine, fastpath=False, **QUICK_KWARGS)
        best_off = min(best_off, wall)
        _, wall = chain_pipeline(new_engine, fastpath=True, **QUICK_KWARGS)
        best_on = min(best_on, wall)
    measured = best_off / best_on
    baseline = fastpath_floor(baseline_path)
    if baseline is None:
        print(f"perf-smoke: measured {measured:.2f}x, nothing to gate against")
        return 0
    committed, floor = baseline
    verdict = "OK" if measured >= floor else "REGRESSED"
    print(
        f"perf-smoke {verdict}: chain_pipeline fast-path speedup "
        f"{measured:.2f}x (committed {committed}x, floor {floor:.2f}x)"
    )
    return 0 if measured >= floor else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized scenarios")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the full-size acceptance ratios hold",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI perf-smoke: chain_pipeline only, gated vs committed baseline",
    )
    parser.add_argument(
        "--jobs",
        default="1",
        help="worker processes for the scenario sweep ('auto' = cpu count)."
        " Ratios stay same-process comparisons, but raw wall seconds pick"
        " up scheduling noise: use >1 for sweep breadth, 1 for the"
        " committed headline numbers",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=COMMITTED,
        help="output path (default: BENCH_engine.json at the repo root)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    if args.quick:
        return run_quick(args.repeats, args.output)

    # read before the run overwrites it (the default output is that file)
    baseline = fastpath_floor(COMMITTED) if args.check else None
    payload = build_payload(args.smoke, args.repeats, jobs=args.jobs)
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(render(payload))
    print(f"\nwrote {args.output}")

    if args.check:
        bars = dict(ACCEPTANCE)
        if baseline is not None:
            bars["chain_pipeline"] = round(baseline[1], 2)
        failed = []
        for name, bar in bars.items():
            speedup = payload["scenarios"][name]["speedup"]
            if speedup < bar:
                failed.append(f"{name}: {speedup}x < {bar}x")
        if failed:
            print("acceptance FAILED: " + "; ".join(failed), file=sys.stderr)
            return 1
        print("acceptance OK: " + ", ".join(
            f"{name} {payload['scenarios'][name]['speedup']}x (>= {bar}x)"
            for name, bar in bars.items()
        ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
