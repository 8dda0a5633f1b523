#!/usr/bin/env python3
"""Compare two ledgers written by ``run.py``: ``compare.py A.json B.json``.

One row per workload x end-to-end metric: both medians, the ratio B/A with
its base (A's median), the run-to-run spread, the bound BENCHMARK.json
fixes for the metric, and a verdict:

* ``regressed`` / ``improved`` — B's median is worse / better than A's by
  more than the bound and by more than the spread;
* ``unresolved`` — the spread (the wider IQR/median of the two sides)
  exceeds the bound, so a change of that size could not have been seen;
* ``unchanged`` — otherwise.

When both ledgers used the same seed and sizes, the simulated-time metrics
(which repeat exactly for one seed) are compared with a 0.5 % bound and the
egress digests must be identical. Exits non-zero if any row regressed or an
egress digest differs. ``improved`` here is not a claim: a claimed gain
needs the paired-run recipe in README.md.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

import _env

EXACT_BOUND = 0.005
EXACT_BETTER = {
    "sim_latency_p50_us": "lower",
    "sim_latency_p999_us": "lower",
    "sim_goodput_gbps": "higher",
}


class Row(NamedTuple):
    workload: str
    metric: str
    a: Optional[float]  # the base
    b: Optional[float]
    spread: float
    bound: float
    verdict: str


def _relative_iqr(row: Dict[str, Any]) -> float:
    if "q1" not in row or not row["median"]:
        return 0.0
    return (row["q3"] - row["q1"]) / abs(row["median"])


def verdict(a: float, b: float, better: str, bound: float, spread: float = 0.0) -> str:
    """See the module docstring; ``a`` is the base."""
    if not a:
        return "unresolved"
    change = (b - a) / abs(a)
    worse = -change if better == "higher" else change
    if abs(worse) > bound and abs(worse) > spread:
        return "regressed" if worse > 0 else "improved"
    return "unresolved" if spread > bound else "unchanged"


def compare(ledger_a: Dict[str, Any], ledger_b: Dict[str, Any], spec: Dict[str, Any]) -> List[Row]:
    rows = []
    same_inputs = all(
        ledger_a["meta"].get(key) == ledger_b["meta"].get(key) for key in ("seed", "quick")
    )
    for workload in (w["name"] for w in spec["workloads"]):
        a = ledger_a["workloads"].get(workload)
        b = ledger_b["workloads"].get(workload)
        if a is None or b is None:
            continue
        for metric in spec["end_to_end"]:
            row_a = a["end_to_end"].get(metric["name"])
            row_b = b["end_to_end"].get(metric["name"])
            if row_a is None or row_b is None:
                continue
            spread = max(_relative_iqr(row_a), _relative_iqr(row_b))
            rows.append(
                Row(
                    workload,
                    metric["name"],
                    row_a["median"],
                    row_b["median"],
                    spread,
                    metric["bound"],
                    verdict(
                        row_a["median"], row_b["median"], metric["better"], metric["bound"], spread
                    ),
                )
            )
        if not same_inputs:
            continue
        for name, better in EXACT_BETTER.items():
            if name in a["exact"] and name in b["exact"]:
                value_a, value_b = a["exact"][name], b["exact"][name]
                rows.append(
                    Row(
                        workload,
                        name,
                        value_a,
                        value_b,
                        0.0,
                        EXACT_BOUND,
                        verdict(value_a, value_b, better, EXACT_BOUND),
                    )
                )
        if "egress_digest" in a["exact"] and "egress_digest" in b["exact"]:
            same = a["exact"]["egress_digest"] == b["exact"]["egress_digest"]
            rows.append(
                Row(workload, "egress_digest", None, None, 0.0, 0.0, "identical" if same else "differs")
            )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    ledgers = []
    for path in args:
        with open(path, "r", encoding="utf-8") as fh:
            ledgers.append(json.load(fh))
    rows = compare(ledgers[0], ledgers[1], _env.load_spec())
    for ledger, label in zip(ledgers, "AB"):
        if not all(w["correct"] for w in ledger["workloads"].values()):
            print(f"warning: ledger {label} has failed correctness checks")
    if ledgers[0]["meta"].get("seed") != ledgers[1]["meta"].get("seed"):
        print("seeds differ: simulated-time metrics and digests are not compared")
    print(
        f"{'workload':16s} {'metric':20s} {'A (base)':>14s} {'B':>14s} {'B/A':>8s} "
        f"{'spread':>7s} {'bound':>6s}  verdict"
    )
    for workload, metric, a, b, spread, bound, outcome in rows:
        if a is None or b is None:
            print(f"{workload:16s} {metric:20s} {'':>14s} {'':>14s} {'':>8s} {'':>7s} {'':>6s}  {outcome}")
            continue
        ratio = f"{b / a:8.4f}" if a else f"{'n/a':>8s}"
        print(
            f"{workload:16s} {metric:20s} {a:14.4f} {b:14.4f} {ratio} "
            f"{spread:7.4f} {bound:6.3f}  {outcome}"
        )
    bad = [row for row in rows if row.verdict in ("regressed", "differs")]
    print(f"{len(rows)} rows, {len(bad)} regressed or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
