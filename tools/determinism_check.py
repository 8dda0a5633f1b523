#!/usr/bin/env python
"""Same-seed double-run determinism gate (``BENCH_determinism.json``).

Runs each selected chaos/overload scenario ``--runs`` times under each
seed, digests the full observable stream of every run (ordered egress,
drop ledger, per-component stats, engine counters — see
``repro.analysis.determinism``), and fails if any same-seed digests
disagree. This is the direct guard for the trustworthiness of every
BENCH_* number and campaign verdict: a stray ``set`` iteration order, a
wall-clock read, or a process-global counter leaking into routing all
show up here as a digest mismatch.

Usage::

    python tools/determinism_check.py                    # defaults
    python tools/determinism_check.py --seeds 2 --runs 2 \
        --chaos nf-crash --overload overload-burst --jobs 2   # CI smoke
    python tools/determinism_check.py --chaos lossy-link --sanitize

``--jobs N|auto`` fans the independent (scenario, seed) cases across
worker processes (``repro.parallel``, DESIGN.md §11); the ``runs``
same-seed executions of one case stay inside one worker.

Exit status is non-zero on any digest mismatch, failed case, or lost
worker. A run in which a simulation process died of an exception
(``Simulator.crashed`` non-empty) is a failed case: it is reported as
``ERROR`` with the process's name instead of being digested.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import _bootstrap

_bootstrap.ensure_repro_importable()


def render(report: dict) -> str:
    lines = [
        "determinism check (digest = sha256 of the run's observable stream)",
        f"{'scenario':<26} {'seed':>5} {'runs':>5} {'verdict':>9}  digest",
    ]
    for case in report["cases"]:
        verdict = "ok" if case["ok"] else "MISMATCH"
        if case.get("error"):
            verdict, shown = "ERROR", case["error"]
        elif case["ok"]:
            shown = case["digests"][0][:16]
        else:
            shown = " / ".join(d[:8] for d in case["digests"])
        lines.append(
            f"{case['kind'] + ':' + case['scenario']:<26} {case['seed']:>5} "
            f"{len(case['digests']):>5} {verdict:>9}  {shown}"
        )
    for scenario, sensitive in sorted(report["seed_sensitivity"].items()):
        if not sensitive:
            lines.append(
                f"note: {scenario} digests are identical across seeds "
                "(scripted scenario — expected when no seeded randomness is used)"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    from repro.analysis.determinism import check_determinism

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=2, help="number of seeds")
    parser.add_argument("--runs", type=int, default=2, help="runs per seed")
    parser.add_argument(
        "--chaos",
        nargs="*",
        default=["nf-crash"],
        help="chaos scenarios to double-run (default: nf-crash)",
    )
    parser.add_argument(
        "--overload",
        nargs="*",
        default=["overload-burst"],
        help="overload scenarios to double-run (default: overload-burst)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run with the runtime sanitizer suite installed",
    )
    parser.add_argument(
        "--fastpath-equivalence",
        action="store_true",
        help="also run the declarative chain with batching off vs on per "
        "seed and require identical per-flow egress and state",
    )
    parser.add_argument(
        "--jobs",
        default="1",
        help="worker processes for the case fan-out"
        " ('auto' = cpu count; default 1 = serial)",
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-case wall budget in seconds; a hung case is recorded as an"
        " infra failure instead of wedging the check",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="requeue budget for cases lost to a worker crash (default 1)",
    )
    parser.add_argument("-o", "--output", default="BENCH_determinism.json")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    seeds = list(range(args.seeds))

    def progress(case: dict) -> None:
        verdict = "ok" if case["ok"] else "MISMATCH"
        print(
            f"  {case['kind']}:{case['scenario']} seed={case['seed']} {verdict}",
            flush=True,
        )

    report = check_determinism(
        seeds=seeds,
        runs=args.runs,
        chaos=args.chaos,
        overload=args.overload,
        sanitize=args.sanitize,
        progress=progress,
        jobs=args.jobs,
        timeout_s=args.run_timeout,
        retries=args.retries,
    )
    equivalence = None
    if args.fastpath_equivalence:
        from repro.analysis.determinism import check_fastpath_equivalence

        def fp_progress(case: dict) -> None:
            verdict = "ok" if case["ok"] else "MISMATCH"
            print(
                f"  fastpath-equivalence seed={case['seed']} {verdict} "
                f"(fast hits: {case['fast_hits']})",
                flush=True,
            )

        equivalence = check_fastpath_equivalence(
            seeds,
            progress=fp_progress,
            jobs=args.jobs,
            timeout_s=args.run_timeout,
            retries=args.retries,
        )
    payload = {
        "bench": "determinism",
        "config": {
            "seeds": seeds,
            "runs": args.runs,
            "chaos": args.chaos,
            "overload": args.overload,
            "sanitize": args.sanitize,
            "fastpath_equivalence": args.fastpath_equivalence,
        },
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "wall_s": round(time.perf_counter() - started, 2),
        "meta": {
            "jobs": report.get("pool", {}).get("jobs"),
            "wall_s_serial_est": report.get("pool", {}).get("wall_s_serial_est"),
        },
        "report": report,
        "fastpath_equivalence": equivalence,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(render(report))
    if equivalence is not None:
        verdict = "ok" if equivalence["ok"] else "MISMATCH"
        print(
            f"fastpath equivalence (batching off vs on, "
            f"{len(equivalence['cases'])} seeds): {verdict}"
        )
    print(f"wrote {args.output} ({payload['wall_s']}s)")
    failed = not report["ok"] or (equivalence is not None and not equivalence["ok"])
    if failed:
        if report["mismatches"]:
            print(f"FAIL: {len(report['mismatches'])} same-seed digest mismatch(es)")
        if report.get("infra_failures"):
            print(
                f"FAIL: {len(report['infra_failures'])} infra failure(s) "
                "(worker crash/timeout)"
            )
            for failure in report["infra_failures"]:
                print(f"  {failure}")
        if equivalence is not None and not equivalence["ok"]:
            print(
                "FAIL: fastpath equivalence mismatch on seed(s) "
                f"{[case['seed'] for case in equivalence['mismatches']]}"
            )
        return 1
    print("all same-seed digests agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
