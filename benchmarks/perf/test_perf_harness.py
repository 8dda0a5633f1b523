"""Tests of the benchmark harness itself: ``pytest benchmarks/perf -q``.

They run the real command at ``--quick`` sizes, so they check the contract
(names, units, counts, JSON shape), determinism, the correctness wiring and
the completeness of the layer attribution — not any speed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import _env
import calibrate
import compare
import layers

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN = [sys.executable, os.path.join(_env.HERE, "run.py")]


@pytest.fixture(scope="module")
def spec():
    return _env.load_spec()


def quick_run(workload: str, seed: int, trace: int):
    """The driver's JSON object and the detailed result file of one run."""
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--trace", str(trace), "--quick"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    printed = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(_env.OUT_DIR, f"run-{workload}-trace{trace}.json")) as fh:
        return printed, json.load(fh)


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and 0 < len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(os.path.isdir(os.path.join(_env.REPO_ROOT, path)) for path in spec["paths"])


def test_every_workload_emits_every_end_to_end_metric(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        printed, detail = quick_run(workload, seed=3, trace=0)
        assert set(printed) == {"correct", "attempted", "failed", "metrics"}
        assert printed["correct"] is True and printed["failed"] == 0
        assert printed["attempted"] >= 1 and detail["problems"] == []
        assert set(printed["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        for name, body in printed["metrics"].items():
            assert NAME.match(name) and UNIT.match(body["unit"])
            assert body["value"] > 0, f"{workload}: {name} must never read 0"


def test_same_seed_repeats_exactly_and_another_seed_does_not():
    _, first = quick_run("chain4_fast", seed=1, trace=0)
    _, again = quick_run("chain4_fast", seed=1, trace=0)
    _, other = quick_run("chain4_fast", seed=2, trace=0)
    assert first["exact"] == again["exact"]  # sim metrics and both digests
    assert set(first["exact"]) == {
        "sim_latency_p50_us", "sim_latency_p999_us", "sim_goodput_gbps", "digest", "egress_digest",
    }
    assert other["exact"]["egress_digest"] != first["exact"]["egress_digest"]
    assert other["exact"]["digest"] != first["exact"]["digest"]


def test_traced_run_attributes_all_the_time(spec):
    printed, detail = quick_run("paper_mixed", seed=1, trace=1)
    metrics = {name: body["value"] for name, body in printed["metrics"].items()}
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    # the per-layer self times (with `other`) sum to what the profiler saw
    assert abs(detail["attributed_ratio"] - 1.0) < 0.02
    assert 0.0 <= metrics["other.self_share"] <= 0.05
    assert all(metrics[f"{layer}.self_us_per_pkt"] > 0 for layer in layers.LAYERS)
    assert metrics["trace.overhead_ratio"] > 1.0
    assert 0.3 < metrics["core.fastpath.fast_share"] < 0.7
    assert metrics["core.root.deleted_ratio"] == 1.0 and metrics["core.root.log_residual"] == 0
    # layers that do not run on a simulator workload read 0
    assert metrics["dist.transport.frames_per_pkt"] == 0
    trace_file = os.path.join(_env.OUT_DIR, "trace-paper_mixed-seed1-trace1.json")
    with open(trace_file) as fh:
        events = json.load(fh)["traceEvents"]
    assert {"setup", "warmup", "run", "verify"} <= {event["name"] for event in events}
    assert all(event["args"]["run"] == "paper_mixed-seed1-trace1" for event in events)


def test_traced_fabric_run_reports_the_dist_layers():
    printed, _ = quick_run("dist_1shard", seed=1, trace=1)
    metrics = {name: body["value"] for name, body in printed["metrics"].items()}
    assert metrics["dist.transport.socket_faults"] == 0
    for name in (
        "dist.transport.frames_per_pkt",
        "dist.transport.encode_us_per_frame",
        "dist.transport.decode_us_per_frame",
        "dist.transport.loopback_frames_per_s",
        "dist.store_node.wal_appends_per_pkt",
    ):
        assert metrics[name] > 0, name
    assert metrics["simnet.engine.events_per_pkt"] == 0  # not visible from outside


def test_layer_map_covers_every_module():
    repro = os.path.join(_env.SRC_DIR, "repro")
    unmapped = []
    for directory, _dirs, files in os.walk(repro):
        for filename in files:
            if filename.endswith(".py"):
                relpath = os.path.relpath(os.path.join(directory, filename), repro)
                if layers.layer_of_module(relpath.replace(os.sep, "/")) is None:
                    unmapped.append(relpath)
    assert not unmapped, f"add these to benchmarks/perf/layers.py: {unmapped}"
    # a new module in a hot package is not silently swallowed by a prefix
    assert layers.layer_of_module("core/brand_new.py") is None
    assert layers.layer_of_module("brand_new.py") is None
    named = {name for name in layers._FILES.values()} | set(layers._DIRS.values())
    assert set(layers.LAYERS) <= named


def test_reference_speed_rescaling():
    slow = [2 * calibrate.SPIN_REFERENCE_S] * 2  # the host ran at half speed
    assert calibrate.to_reference(3.0, slow) == pytest.approx(1.5)
    assert 0.2 * calibrate.SPIN_REFERENCE_S < calibrate.spin() < 20 * calibrate.SPIN_REFERENCE_S


def test_compare_verdicts():
    assert compare.verdict(100.0, 100.5, "higher", 0.1) == "unchanged"
    assert compare.verdict(100.0, 80.0, "higher", 0.1) == "regressed"
    assert compare.verdict(100.0, 120.0, "higher", 0.1) == "improved"
    assert compare.verdict(100.0, 120.0, "lower", 0.1) == "regressed"
    assert compare.verdict(100.0, 105.0, "lower", 0.1, spread=0.2) == "unresolved"
    assert compare.verdict(100.0, 115.0, "lower", 0.1, spread=0.2) == "unresolved"
    assert compare.verdict(100.0, 150.0, "lower", 0.1, spread=0.2) == "regressed"


def test_quick_ledger_agrees_with_itself(tmp_path, spec):
    ledger = str(tmp_path / "ledger.json")
    done = subprocess.run(
        RUN + ["--quick", "--only", "chain4_general", "--only", "paper_mixed", "--out", ledger],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(ledger) as fh:
        payload = json.load(fh)
    assert payload["meta"]["claim"] is None and payload["meta"]["quick"] is True
    assert set(payload["workloads"]) == {"chain4_general", "paper_mixed"}
    rows = compare.compare(payload, payload, spec)
    assert {row.verdict for row in rows} <= {"unchanged", "identical"}
    assert any(row.metric == "egress_digest" for row in rows)
    assert compare.main([ledger, ledger]) == 0
