#!/usr/bin/env python3
"""Layered performance ledger for the simulator and the repro.dist fabric.

One workload, as the benchmark driver calls it (see BENCHMARK.json)::

    python3 benchmarks/perf/run.py --workload chain4_fast --seed 1 --seconds 10 --trace 0

prints the checks, every metric by name and unit, and as the last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0`` (tracing off), the per-layer metrics
with ``--trace 1`` (a separate traced run). Without ``--workload`` it runs
the whole ledger — every workload three times, interleaved, one child
process at a time, then one traced run each — and writes
``benchmarks/perf/out/ledger-seed<N>.json`` for ``compare.py``::

    python3 benchmarks/perf/run.py [--seed N] [--quick] [--only W]

README.md in this directory has the metric glossary and the protocol.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # setup_s counts everything from here on

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence

import _env

SETUP_PROBES = 4  # fresh-process set-ups measured besides this process's own
SIM_MIN_ROUNDS = 3
DIST_MIN_ROUNDS = 7  # the fabric is bistable: the median must sit on the quiet mode
DIST_MAX_ROUNDS = 11
MAX_ROUNDS = 64
CODEC_CORPUS_FRAMES = 2000
DIST_NAME = "dist_1shard"


def quartiles(values: Sequence[float]) -> Dict[str, Any]:
    """Median with the quartiles and n beside it."""
    out: Dict[str, Any] = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def measure_rounds(
    one_round: Callable[[int], Any],
    timed_s: Callable[[Any], float],
    seconds: float,
    min_rounds: int,
    max_rounds: int,
) -> List[Any]:
    """Repeat ``one_round`` until the timed regions add up to ``seconds``."""
    rounds: List[Any] = []
    measured = 0.0
    while len(rounds) < min_rounds or (measured < seconds and len(rounds) < max_rounds):
        rounds.append(one_round(len(rounds)))
        measured += timed_s(rounds[-1])
    return rounds


# ---------------------------------------------------------------------------
# simulator workloads
# ---------------------------------------------------------------------------


def _sim_setup(name: str, seed: int, quick: bool):
    """Imports, traffic generation, one runtime build: ready to inject.
    Returns the set-up time in raw and in reference-speed seconds."""
    _env.use_checkout_source()
    import simbench
    from calibrate import spin, to_reference
    from repro.simnet.engine import Simulator

    workload = simbench.SIM_WORKLOADS[name]
    packets = workload.traffic(seed, quick)
    workload.build(Simulator(), workload.fastpath)
    setup_s = time.perf_counter() - _STARTED
    return workload, packets, setup_s, to_reference(setup_s, [spin() for _ in range(3)])


def setup_probe(name: str, seed: int, quick: bool) -> int:
    print(repr(_sim_setup(name, seed, quick)[3]))
    return 0


def measure_setup(name: str, seed: int, quick: bool, own_s: float) -> List[float]:
    """Set up in fresh processes, one at a time; each reports its own
    (reference-speed) time."""
    samples = [own_s]
    command = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed)]
    command += ["--setup-probe"] + (["--quick"] if quick else [])
    for _ in range(1 if quick else SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_sim(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    workload, packets, raw_setup_s, own_setup_s = _sim_setup(name, seed, quick)
    import simbench
    from spans import SpanLog

    spans = SpanLog(f"{name}-seed{seed}-trace{int(trace)}")
    spans.add("setup", _STARTED, _STARTED + raw_setup_s)
    with spans.span("warmup"):
        problems = simbench.warm_up(workload, packets, quick)

    def timed_round(_index: int):
        with spans.span("run"):
            return simbench.run_round(workload, packets)

    if trace or quick:
        rounds = [timed_round(0)]
    else:
        rounds = measure_rounds(timed_round, lambda r: r.wall_s, seconds, SIM_MIN_ROUNDS, MAX_ROUNDS)
    first = rounds[0]
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "rounds": len(rounds),
        "packets_per_round": first.packets,
        "exact": dict(first.sim, digest=first.digest, egress_digest=first.egress_digest),
    }

    if trace:
        import cProfile

        import direct
        import layers

        profile = cProfile.Profile()
        with spans.span("run"):
            traced = simbench.run_round(workload, packets, profile=profile)
        rounds.append(traced)
        seconds_by_layer, profiled_s = layers.attribute(profile)
        attributed = sum(seconds_by_layer.values())
        # traced seconds -> reference-speed microseconds per packet
        per_packet = traced.ref_wall_s / traced.wall_s * 1e6 / traced.packets
        per_layer = dict(traced.counts)
        per_layer.update(traced.sim)
        for layer in layers.LAYERS:
            per_layer[f"{layer}.self_us_per_pkt"] = seconds_by_layer.get(layer, 0.0) * per_packet
        per_layer["other.self_share"] = seconds_by_layer.get(layers.OTHER, 0.0) / attributed
        per_layer["trace.overhead_ratio"] = traced.ref_wall_s / first.ref_wall_s
        with spans.span("direct"):
            per_layer.update(direct.sim_layer_metrics(quick))
        result["per_layer"] = per_layer
        # the layer split must account for all the self time the profiler saw
        result["attributed_ratio"] = attributed / profiled_s
    else:
        result["end_to_end"] = {
            "pkts_per_s": [r.packets / r.ref_wall_s for r in rounds],
            "cpu_us_per_pkt": [r.ref_cpu_s / r.packets * 1e6 for r in rounds],
            "setup_s": measure_setup(name, seed, quick, own_setup_s),
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        }
        result["raw"] = {
            "pkts_per_s": statistics.median(r.packets / r.wall_s for r in rounds),
            "cpu_us_per_pkt": statistics.median(r.cpu_s / r.packets * 1e6 for r in rounds),
            "setup_s": raw_setup_s,
        }

    with spans.span("verify"):
        for index, round_ in enumerate(rounds):
            problems += [f"round {index}: {text}" for text in round_.problems]
            if round_.digest != first.digest:
                problems.append(
                    f"determinism: round {index} digest {round_.digest[:12]} differs from "
                    f"round 0 {first.digest[:12]}"
                )
    result.update(
        attempted=sum(r.packets for r in rounds),
        # a problem that no packet count explains (a digest mismatch) fails the lot
        failed=sum(r.failed for r in rounds) or (first.packets if problems else 0),
        problems=problems,
        spans=spans,
    )
    return result


# ---------------------------------------------------------------------------
# the distributed fabric
# ---------------------------------------------------------------------------


def run_dist(seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    from spans import SpanLog

    spans = SpanLog(f"{DIST_NAME}-seed{seed}-trace{int(trace)}")
    _env.use_checkout_source()
    import distbench
    from calibrate import spin, to_reference

    import_s = time.perf_counter() - _STARTED
    spans.add("setup", _STARTED, _STARTED + import_s)
    ref_import_s = to_reference(import_s, [spin() for _ in range(3)])

    def timed_round(index: int):
        return distbench.run_round(seed, index, quick, spans, keep_wal=trace)

    if quick:
        rounds = [timed_round(0)]
    else:
        rounds = measure_rounds(
            timed_round, lambda r: r.traffic_s, seconds, DIST_MIN_ROUNDS, DIST_MAX_ROUNDS
        )
    problems = [f"round {i}: {text}" for i, r in enumerate(rounds) for text in r.problems]
    good = [r for r in rounds if not r.problems]
    result: Dict[str, Any] = {
        "workload": DIST_NAME,
        "seed": seed,
        "rounds": len(rounds),
        "packets_per_round": rounds[0].packets,
        "exact": {},
        "attempted": sum(r.packets for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": problems,
        "spans": spans,
    }
    if not good:
        return result
    if trace:
        import direct

        per_layer = {
            key: statistics.median(r.counts[key] for r in good) for key in good[0].counts
        }
        per_layer["dist.fabric.storm_runs"] = sum(r.storm for r in good)
        with spans.span("direct"):
            per_layer.update(direct.codec_metrics(good[-1].wal, CODEC_CORPUS_FRAMES))
        per_layer["dist.transport.codec_us_per_pkt_est"] = (
            per_layer["dist.transport.encode_us_per_frame"]
            + per_layer["dist.transport.decode_us_per_frame"]
        ) * per_layer["dist.transport.frames_per_pkt"]
        result["per_layer"] = per_layer
    else:
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["end_to_end"] = {
            "pkts_per_s": [r.packets / to_reference(r.traffic_s, r.spins) for r in good],
            "cpu_us_per_pkt": [to_reference(r.cpu_s, r.spins) / r.packets * 1e6 for r in good],
            # imports happen once; every round spawns and waits for the HELLOs
            "setup_s": [ref_import_s + to_reference(r.spawn_s, r.spins) for r in good],
            "peak_rss_mb": [own_rss + r.children_rss_mib for r in good],
        }
        result["raw"] = {
            "pkts_per_s": statistics.median(r.packets / r.traffic_s for r in good),
            "cpu_us_per_pkt": statistics.median(r.cpu_s / r.packets * 1e6 for r in good),
            "setup_s": statistics.median(import_s + r.spawn_s for r in good),
        }
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def report(result: Dict[str, Any], spec: Dict[str, Any], trace: bool) -> int:
    """Print checks and metrics; the driver's JSON object goes last."""
    name = result["workload"]
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    values = result.get(kind, {})
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json {kind}: {unknown}")
    spans = result.pop("spans")
    if trace:
        spans.write_chrome_trace(os.path.join(_env.OUT_DIR, f"trace-{spans.run_id}.json"))

    print(
        f"== {name} seed={result['seed']} trace={int(trace)} rounds={result['rounds']} "
        f"packets/round={result['packets_per_round']}"
    )
    for text in result["problems"]:
        print(f"FAIL {text}")
    correct = not result["problems"] and result["failed"] == 0 and bool(values)
    if correct:
        print("checks passed: " + ", ".join(checks_of(name)))
    metrics: Dict[str, Dict[str, Any]] = {}
    summaries: Dict[str, Any] = {}
    for metric, unit in units.items():
        if trace:
            # 0 = the layer does not run (or cannot be seen) on this workload
            value, note = float(values.get(metric, 0.0)), ""
        elif metric not in values:
            continue
        else:
            summary = summaries[metric] = quartiles(values[metric])
            value = summary["median"]
            note = (
                f"  (q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}, n={summary['n']})"
                if "q1" in summary
                else ""
            )
        metrics[metric] = {"value": value, "unit": unit}
        print(f"{metric:44s} {value:16.6f} {unit}{note}")
    for key, value in result.get("raw", {}).items():
        print(f"{'raw ' + key:44s} {value:16.6f} {units[key]}  (host seconds as they ran)")
    for key, value in result["exact"].items():
        print(f"{key:44s} {value}")

    result.update(correct=correct, trace=int(trace), summaries=summaries, metrics=metrics)
    os.makedirs(_env.OUT_DIR, exist_ok=True)
    with open(result_path(name, trace), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, result["attempted"]),
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def checks_of(name: str) -> List[str]:
    if name == DIST_NAME:
        return ["DistOutcome.ok", "zero socket faults", "every packet egressed"]
    checks = ["exactly-once", "flow-ordering", "deleted == injected", "root log drained"]
    checks.append("determinism (rounds repeat exactly)")
    if name == "chain4_fast":
        checks.append("fast-path equivalence (warm-up)")
    return checks


def result_path(name: str, trace: bool) -> str:
    return os.path.join(_env.OUT_DIR, f"run-{name}-trace{int(trace)}.json")


# ---------------------------------------------------------------------------
# the whole ledger
# ---------------------------------------------------------------------------


def run_ledger(args, spec: Dict[str, Any]) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.only:
        unknown = sorted(set(args.only) - set(names))
        if unknown:
            raise SystemExit(f"unknown workload(s) {unknown}; choose from {names}")
        names = [n for n in names if n in args.only]
    repeats = 1 if args.quick else 3
    # repeats of different workloads interleave, so slow drift of the host
    # lands on every workload alike; the traced runs come last
    plan = [(name, False) for _ in range(repeats) for name in names]
    if not args.quick:
        plan += [(name, True) for name in names]

    ledger: Dict[str, Any] = {
        "meta": {
            "seed": args.seed,
            "quick": args.quick,
            "run_seconds": args.seconds,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "claim": None,  # this ledger measures; it asserts no gain
        },
        "workloads": {
            n: {"end_to_end": {}, "exact": {}, "per_layer": {}, "correct": True, "problems": []}
            for n in names
        },
    }
    for name, trace in plan:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(int(trace))] + (["--quick"] if args.quick else [])
        print(f"-- {' '.join(command[2:])}", flush=True)
        done = subprocess.run(command, timeout=900)  # strictly one child at a time
        entry = ledger["workloads"][name]
        try:
            with open(result_path(name, trace), "r", encoding="utf-8") as fh:
                child = json.load(fh)
        except (OSError, ValueError):
            child = None
        if done.returncode != 0 or child is None:
            entry["correct"] = False
            entry["problems"].append(f"run exited with {done.returncode}")
            if child is None:
                continue
        entry["problems"] += child["problems"]
        entry["correct"] = entry["correct"] and child["correct"]
        for key, value in child["exact"].items():
            if entry["exact"].setdefault(key, value) != value:
                entry["correct"] = False
                entry["problems"].append(
                    f"determinism: {key} read {entry['exact'][key]} then {value}"
                )
        if trace:
            entry["per_layer"] = child["metrics"]
        else:
            for metric, body in child["metrics"].items():
                row = entry["end_to_end"].setdefault(metric, {"unit": body["unit"], "values": []})
                row["values"].append(body["value"])

    print(f"\n== ledger seed={args.seed}" + (" (quick)" if args.quick else ""))
    for name, entry in ledger["workloads"].items():
        for metric, row in entry["end_to_end"].items():
            row.update(quartiles(row["values"]))
            spread = f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} " if "q1" in row else ""
            print(f"{name:16s} {metric:18s} {row['median']:14.4f} {row['unit']:6s} {spread}n={row['n']}")
        for key, value in entry["exact"].items():
            if isinstance(value, float):  # the rest are digests
                print(f"{name:16s} {key:18s} {value:14.4f} (exact repeat)")
        print(f"{name:16s} {'correct':18s} {entry['correct']}")
        for text in entry["problems"]:
            print(f"{name:16s} FAIL {text}")
    out = args.out or os.path.join(
        _env.OUT_DIR, f"ledger-seed{args.seed}{'-quick' if args.quick else ''}.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1)
    print(f"ledger written to {out}")
    return 0 if all(e["correct"] for e in ledger["workloads"].values()) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = _env.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=1, help="traffic seed (default 1)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="sizes / 10, one round, no traced run")
    parser.add_argument("--only", action="append", metavar="W", help="ledger mode: only workload W")
    parser.add_argument("--out", help="ledger mode: where to write the ledger JSON")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload is None:
        _env.use_checkout_source()  # fail here, not in every child, on a bare directory
        return run_ledger(args, spec)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.quick)
    trace = bool(args.trace)
    if args.workload == DIST_NAME:
        result = run_dist(args.seed, args.seconds, trace, args.quick)
    else:
        result = run_sim(args.workload, args.seed, args.seconds, trace, args.quick)
    return report(result, spec, trace)


if __name__ == "__main__":
    raise SystemExit(main())
