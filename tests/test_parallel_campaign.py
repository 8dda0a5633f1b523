"""The parallel campaign fabric (``repro.parallel``, DESIGN.md §11).

Covers the merge-determinism contract (parallel payloads byte-identical
to serial), the failure taxonomy (invariant violation vs failed run vs
infra failure), worker lifecycle (crash retry, per-run timeout), and the
per-run exception isolation the serial runner gets from the same code
path. The campaign and CLI layers run once per in-process family (chaos,
overload, ops, determinism) through the one shared harness
(``repro.parallel.campaign``); the dist family's report and row
aggregator are driven with hand-built outcomes, no child processes.

Worker-crash and timeout tests use ``jobs>=2`` only: the crash helpers
call ``os._exit`` / sleep forever, which must happen in a *worker*
process, never inline in the pytest process. The pool prefers the
``fork`` start method, so scenarios registered via ``monkeypatch`` are
visible inside workers.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import time
from dataclasses import replace

import pytest

from repro.chaos.campaign import ScenarioSpec
from repro.chaos.invariants import InvariantViolation
from repro.chaos.overload import OverloadSpec
from repro.ops.campaign import SCENARIOS as OPS_SCENARIOS
from repro.parallel.merge import RunFailure, merge_sanitizer_reports, payloads_equal_modulo_meta
from repro.parallel.pool import CampaignPool, InfraFailure, resolve_jobs
from repro.parallel.campaign import CampaignReport, load_family, run_campaign
from repro.parallel.campaign import main as campaign_main
from repro.simnet.monitor import percentiles

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="worker-lifecycle tests need the fork start method"
)


# --- module-level work functions (must be picklable) ---------------------


def _double(item):
    return item * 2


def _double_with_skew(item):
    # Completion order deliberately differs from submission order: later
    # items finish first. Exercises the submission-order merge.
    time.sleep(0.02 * ((7 - item) % 4))
    return item * 2


def _exit_on_three(item):
    if item == 3:
        os._exit(17)  # simulated segfault/OOM-kill: no cleanup, no excepthook
    return item * 2


def _hang_on_one(item):
    if item == 1:
        time.sleep(60.0)
    return item * 2


def _raise_on_two(item):
    if item == 2:
        raise RuntimeError("boom")
    return item * 2


def _crashy(_seed):
    os._exit(23)


def _hung(_seed):
    time.sleep(60.0)


def _raising(_seed):
    raise ValueError("synthetic scheduling bug")


# --- one misbehaving scenario per family ---------------------------------
#
# The campaign-layer tests below run once per in-process family. Each
# family gets a spec whose run calls ``hook(seed)`` before simulating
# anything, so the same three hooks (raise / os._exit / sleep) exercise
# the shared runner through every family's own ``run``.


class _HookedPhases(list):
    """OverloadSpec has no callable field; its phase list is iterated as
    soon as the run starts."""

    def __init__(self, hook):
        super().__init__()
        self.hook = hook

    def __iter__(self):
        self.hook(0)
        return super().__iter__()


def _chaos_spec(name, hook):
    return ScenarioSpec(name=name, description="test scenario", build_schedule=hook)


def _overload_spec(name, hook):
    return OverloadSpec(name=name, description="test scenario", phases=_HookedPhases(hook))


def _ops_spec(name, hook):
    """A ScenarioSpec on the ops chain: hot-reload's plan, ``hook`` as its
    fault overlay."""
    return replace(
        OPS_SCENARIOS["hot-reload"],
        name=name,
        description="test scenario",
        build_schedule=hook,
    )


#: family -> (a cheap green scenario, misbehaving-spec factory, runs per
#: (scenario, seed): overload runs each with the autoscaler off and on)
FAMILY_CASES = {
    "chaos": ("nf-crash", _chaos_spec, 1),
    "overload": ("slow-store", _overload_spec, 2),
    "ops": ("rolling-upgrade", _ops_spec, 1),
    # one item = the same-seed runs of one chaos or overload scenario
    "determinism": ("chaos:nf-crash", _chaos_spec, 1),
}
IN_PROCESS_FAMILIES = sorted(FAMILY_CASES)
#: skip overload's knee sweep where a test is not about it
NO_SWEEP = {"overload": ()}


def _register(monkeypatch, family_name, scenario, hook):
    _good, make_spec, _per_seed = FAMILY_CASES[family_name]
    monkeypatch.setitem(
        load_family(family_name).scenarios, scenario, make_spec(scenario, hook)
    )


# --- jobs resolution -----------------------------------------------------


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs("3") == 3
    assert resolve_jobs("auto") >= 1
    assert resolve_jobs(None) == resolve_jobs("auto") == resolve_jobs(0)
    with pytest.raises(ValueError):
        resolve_jobs(-1)
    with pytest.raises(ValueError):
        resolve_jobs("-2")


# --- pool mechanics ------------------------------------------------------


def test_inline_map_preserves_order_and_walls():
    pool = CampaignPool(jobs=1)
    outcome = pool.map(_double, [5, 1, 9])
    assert outcome.ok
    assert outcome.values() == [10, 2, 18]
    assert [r.index for r in outcome.results] == [0, 1, 2]
    assert all(r.wall_s >= 0.0 for r in outcome.results)
    stats = outcome.stats()
    assert stats["jobs"] == 1
    assert stats["infra_failures"] == 0


@needs_fork
def test_parallel_map_matches_inline():
    serial = CampaignPool(jobs=1).map(_double, list(range(8)))
    parallel = CampaignPool(jobs=4).map(_double, list(range(8)))
    assert parallel.ok
    assert parallel.values() == serial.values() == [i * 2 for i in range(8)]


@needs_fork
def test_merge_determinism_under_shuffled_completion():
    # later-submitted items complete first; merged order must still be
    # submission order, run after run
    items = list(range(8))
    reference = CampaignPool(jobs=1).map(_double, items).values()
    for _ in range(2):
        outcome = CampaignPool(jobs=4).map(_double_with_skew, items)
        assert outcome.ok
        assert outcome.values() == reference
        assert [r.index for r in outcome.results] == items


@needs_fork
def test_worker_crash_is_retried_then_recorded():
    pool = CampaignPool(jobs=2, retries=1)
    outcome = pool.map(_exit_on_three, list(range(6)))
    assert not outcome.ok
    # every innocent item still completed, in submission order
    assert [(r.index, r.value) for r in outcome.results] == [
        (0, 0), (1, 2), (2, 4), (4, 8), (5, 10)
    ]
    (failure,) = outcome.infra_failures
    assert isinstance(failure, InfraFailure)
    assert failure.index == 3
    assert failure.reason == "worker-crash"
    assert failure.attempts == 2  # initial run + one retry, both crashed
    assert outcome.stats()["infra_failures"] == 1


@needs_fork
def test_hung_worker_times_out_without_wedging_the_pool():
    pool = CampaignPool(jobs=2, timeout_s=1.0)
    start = time.perf_counter()
    outcome = pool.map(_hang_on_one, list(range(4)))
    wall = time.perf_counter() - start
    assert not outcome.ok
    assert [r.value for r in outcome.results] == [0, 4, 6]
    (failure,) = outcome.infra_failures
    assert failure.index == 1
    assert failure.reason == "timeout"
    # the worker-side alarm fires at ~1s; well before the 60s sleep and
    # before the parent watchdog (2x + 5s)
    assert wall < 30.0


def test_work_function_exception_is_an_infra_failure_inline():
    # campaign layers catch their own expected exceptions; one escaping
    # to the pool is classified, recorded, and does not stop the sweep
    outcome = CampaignPool(jobs=1).map(_raise_on_two, list(range(4)))
    assert not outcome.ok
    assert [r.value for r in outcome.results] == [0, 2, 6]
    (failure,) = outcome.infra_failures
    assert failure.reason == "worker-exception"
    assert "boom" in failure.detail


# --- merge helpers -------------------------------------------------------


def test_merge_sanitizer_reports():
    assert merge_sanitizer_reports([]) is None
    assert merge_sanitizer_reports([None, None]) is None
    merged = merge_sanitizer_reports(
        [{"races": 2, "depth_peak": 5}, None, {"races": 1, "depth_peak": 9, "x": 1}]
    )
    assert merged == {"depth_peak": 9, "races": 3, "x": 1}
    assert list(merged) == sorted(merged)  # key-sorted for payload stability


def test_payloads_equal_modulo_meta():
    a = {"campaign": {"runs": 2}, "meta": {"jobs": 1, "wall_s": 9.9}}
    b = {"campaign": {"runs": 2}, "meta": {"jobs": 4, "wall_s": 0.1}}
    equal, diff = payloads_equal_modulo_meta(a, b)
    assert equal and diff == []
    b["campaign"] = {"runs": 3}
    equal, diff = payloads_equal_modulo_meta(a, b)
    assert not equal and diff == ["campaign"]


def test_run_failure_payload_shape():
    failure = RunFailure(
        scenario="s", seed=4, error="ValueError: x", context={"b": 1, "a": 2}
    )
    payload = failure.as_dict()
    # context keys are flattened after the fixed fields, in sorted order,
    # so the serialized failure list is stable across completion orders
    assert list(payload) == ["scenario", "seed", "error", "a", "b"]
    assert payload["a"] == 2 and payload["b"] == 1


# --- percentiles hardening (all-crashed scenarios) -----------------------


def test_percentiles_empty_and_single_sample():
    assert percentiles([]) == {}
    single = percentiles([42.0])
    assert set(single) == {5.0, 25.0, 50.0, 75.0, 95.0}
    assert all(v == 42.0 for v in single.values())


# --- every family: serial/parallel payload equivalence -------------------


@needs_fork
@pytest.mark.parametrize("family_name", IN_PROCESS_FAMILIES)
def test_campaign_payload_byte_identical_across_jobs(family_name):
    good, _make_spec, _per_seed = FAMILY_CASES[family_name]
    kwargs = dict(scenario_names=[good], variant=NO_SWEEP.get(family_name))
    serial = run_campaign(family_name, [0, 1], jobs=1, **kwargs)
    parallel = run_campaign(family_name, [0, 1], jobs=3, **kwargs)
    assert serial.ok and parallel.ok
    a = json.dumps(serial.as_dict(), indent=2)
    b = json.dumps(parallel.as_dict(), indent=2)
    assert a == b  # byte-identical, not merely semantically equal
    # but the meta fragment records how the work was actually executed
    assert serial.pool_stats["jobs"] == 1
    assert parallel.pool_stats["jobs"] == 3
    assert parallel.pool_stats["wall_s_serial_est"] > 0


# --- per-run exception isolation -----------------------------------------


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
@pytest.mark.parametrize("family_name", IN_PROCESS_FAMILIES)
def test_per_run_exception_recorded_and_sweep_continues(
    monkeypatch, family_name, jobs
):
    good, _make_spec, per_seed = FAMILY_CASES[family_name]
    _register(monkeypatch, family_name, "raising", _raising)
    report = run_campaign(
        family_name,
        [0, 1],
        scenario_names=["raising", good],
        variant=NO_SWEEP.get(family_name),
        jobs=jobs,
    )
    assert not report.ok
    # every raising item recorded as a failed run, every good item ran
    assert {(f.scenario, f.seed) for f in report.failures} == {
        ("raising", 0), ("raising", 1)
    }
    assert len(report.failures) == 2 * per_seed
    assert all("synthetic scheduling bug" in f.error for f in report.failures)
    assert [o.scenario for o in report.outcomes] == [good] * (2 * per_seed)
    assert not report.infra_failures  # a caught run failure is NOT infra
    payload = report.as_dict()
    assert payload["campaign"] == {
        "runs": 4 * per_seed,
        "completed": 2 * per_seed,
        "failed_runs": 2 * per_seed,
        "infra_failures": 0,
        "violations": 0,
        "ok": False,
    }
    # the all-failed scenario still gets its rows: zero runs, and no
    # percentile keys / null means (percentiles([]) == {})
    rows = [
        row for key, row in payload["scenarios"].items() if key.startswith("raising")
    ]
    assert len(rows) == per_seed
    for row in rows:
        assert row["runs"] == 0 and row["failed_runs"] == 2
        assert not any(key.endswith("_percentiles") for key in row)
    if family_name == "overload":
        assert [f["autoscale"] for f in payload["failures"]] == [False, False, True, True]
        assert rows[0]["goodput_ratio_mean"] is None


# --- worker loss through the campaign layer ------------------------------


@needs_fork
@pytest.mark.parametrize("family_name", IN_PROCESS_FAMILIES)
def test_campaign_worker_crash_becomes_infra_failure(monkeypatch, family_name):
    good, _make_spec, per_seed = FAMILY_CASES[family_name]
    _register(monkeypatch, family_name, "crashy", _crashy)
    report = run_campaign(
        family_name,
        [0],
        scenario_names=["crashy", good],
        variant=NO_SWEEP.get(family_name),
        jobs=2,
        retries=1,
    )
    assert not report.ok
    assert len(report.infra_failures) == per_seed
    for failure in report.infra_failures:
        assert failure.reason == "worker-crash"
        assert f"{family_name}:crashy" in failure.item
    assert not report.failures  # a lost worker is NOT a run failure
    # the campaign finished: the innocent scenario still completed
    assert [(o.scenario, o.seed) for o in report.outcomes] == [(good, 0)] * per_seed
    payload = report.as_dict()
    assert payload["campaign"]["infra_failures"] == per_seed
    assert payload["infra_failures"][0]["reason"] == "worker-crash"


@needs_fork
@pytest.mark.parametrize("family_name", IN_PROCESS_FAMILIES)
def test_campaign_hung_run_becomes_timeout_infra_failure(monkeypatch, family_name):
    good, _make_spec, per_seed = FAMILY_CASES[family_name]
    _register(monkeypatch, family_name, "hung", _hung)
    report = run_campaign(
        family_name,
        [0],
        scenario_names=["hung", good],
        variant=NO_SWEEP.get(family_name),
        jobs=2,
        timeout_s=2.0,
    )
    assert not report.ok
    assert [f.reason for f in report.infra_failures] == ["timeout"] * per_seed
    assert [(o.scenario, o.seed) for o in report.outcomes] == [(good, 0)] * per_seed


# --- the two harness fixes ------------------------------------------------


@pytest.mark.parametrize("family_name", sorted(FAMILY_CASES) + ["dist"])
def test_unknown_scenario_rejected_before_any_run(family_name):
    # not one swallowed KeyError per seed: the request itself is wrong
    with pytest.raises(ValueError) as excinfo:
        run_campaign(family_name, [0, 1], scenario_names=["typo"], jobs=2)
    message = str(excinfo.value)
    assert family_name in message and "typo" in message
    assert sorted(load_family(family_name).scenarios)[0] in message


@pytest.mark.parametrize("family_name", IN_PROCESS_FAMILIES)
def test_sanitizer_report_survives_a_raising_run(monkeypatch, family_name):
    # the sanitizer suite reports on the way out of the run, not after a
    # successful one: an all-failed sanitized sweep still carries the
    # block (its absence would read as "sanitizers off")
    _register(monkeypatch, family_name, "raising", _raising)
    report = run_campaign(
        family_name,
        [0],
        scenario_names=["raising"],
        variant=NO_SWEEP.get(family_name),
        sanitize=True,
    )
    assert report.failures and not report.outcomes
    assert report.sanitizers is not None
    assert "runs_observed" in report.sanitizers
    unsanitized = run_campaign(
        family_name, [0], scenario_names=["raising"], variant=NO_SWEEP.get(family_name)
    )
    assert unsanitized.sanitizers is None


# --- the dist family, without child processes -----------------------------


def test_dist_family_report_from_hand_built_outcomes():
    from repro.dist.fabric import DistOutcome

    clean = DistOutcome(
        scenario="shard-kill",
        seed=0,
        evidence={
            "pids": {"s0": [11, 12], "s1": [13], "store0": [14]},
            "socket_faults": {"s0->store0": {"resets": 2}, "s1->store0": {}},
        },
        per_shard={"s0": {"retransmissions": 5}, "s1": {"retransmissions": 1}},
        duration_s=1.25,
    )
    broken_fabric = DistOutcome(
        scenario="shard-kill", seed=1, infra_error="store never said HELLO",
        duration_s=0.5,
    )
    violated = DistOutcome(
        scenario="no-fault",
        seed=0,
        violations=[InvariantViolation("exactly-once", "f0-1 egressed twice")],
        duration_s=2.0,
    )
    report = CampaignReport(
        family=load_family("dist"), outcomes=[violated, clean, broken_fabric]
    )
    # DistOutcome.ok folds infra_error, so the shared verdict needs no
    # family branch: one violation + one fabric error => not ok
    assert report.total_violations == 1
    assert not report.ok
    assert CampaignReport(family=load_family("dist"), outcomes=[clean]).ok
    payload = report.as_dict()
    assert payload["campaign"] == {
        "runs": 3,
        "completed": 3,
        "failed_runs": 0,
        "infra_failures": 0,
        "violations": 1,
        "ok": False,
    }
    assert list(payload["scenarios"]) == ["no-fault", "shard-kill"]
    assert payload["scenarios"]["shard-kill"] == {
        "runs": 2,
        "failed_runs": 0,
        "violations": 0,
        "ok_runs": 1,
        "infra_errors": 1,
        "retransmissions": 6,
        "socket_resets": 2,
        "respawned_children": 1,
        "duration_s_total": 1.75,
    }
    assert payload["scenarios"]["no-fault"]["ok_runs"] == 0
    assert [run["seed"] for run in payload["runs"]] == [0, 0, 1]
    assert payload["runs"][2]["infra_error"] == "store never said HELLO"
    assert payload["violations"] == [
        {
            "scenario": "no-fault",
            "seed": 0,
            **InvariantViolation("exactly-once", "f0-1 egressed twice").as_dict(),
        }
    ]
    # every key path of the committed BENCH_dist.json survives
    repo = os.path.dirname(os.path.dirname(__file__))
    with open(os.path.join(repo, "BENCH_dist.json")) as fh:
        committed = json.load(fh)
    assert set(committed) - {"meta"} <= set(payload)
    committed_row = next(iter(committed["scenarios"].values()))
    assert set(committed_row) <= set(payload["scenarios"]["shard-kill"])
    assert set(committed["runs"][0]) == set(payload["runs"][0])
    assert "shard-kill" in load_family("dist").render(payload)


# --- the CLI: exit codes, payload always written, goldens ----------------


def _cli_args(family_name, *scenarios):
    args = [family_name, "--seeds", "1", "--scenarios", *scenarios, "-q"]
    return args + (["--no-sweep"] if family_name == "overload" else [])


@pytest.mark.parametrize("family_name", IN_PROCESS_FAMILIES)
def test_cli_green_run_exits_zero(family_name, tmp_path):
    good, _make_spec, per_seed = FAMILY_CASES[family_name]
    out = tmp_path / "bench.json"
    assert campaign_main(_cli_args(family_name, good) + ["-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["campaign"]["ok"] is True
    assert payload["campaign"]["runs"] == per_seed
    assert payload["meta"]["benchmark"] == f"{family_name}_campaign"
    assert payload["meta"]["jobs"] == 1
    assert payload["meta"]["wall_s_serial_est"] >= 0


@pytest.mark.parametrize("family_name", IN_PROCESS_FAMILIES)
def test_cli_failed_run_exits_nonzero_with_payload_written(
    family_name, tmp_path, monkeypatch, capsys
):
    good, _make_spec, per_seed = FAMILY_CASES[family_name]
    _register(monkeypatch, family_name, "raising", _raising)
    out = tmp_path / "bench.json"
    rc = campaign_main(_cli_args(family_name, "raising", good) + ["-o", str(out)])
    assert rc == 1
    assert f"FAILED RUNS: {per_seed}" in capsys.readouterr().err
    payload = json.loads(out.read_text())
    assert payload["campaign"]["ok"] is False
    assert payload["campaign"]["failed_runs"] == per_seed
    assert payload["failures"][0]["scenario"] == "raising"
    # the payload was still written in full: the good scenario has its rows
    good_rows = [
        row for key, row in payload["scenarios"].items() if key.startswith(good)
    ]
    assert [row["runs"] for row in good_rows] == [1] * per_seed


@needs_fork
@pytest.mark.parametrize("family_name", IN_PROCESS_FAMILIES)
def test_cli_worker_crash_exits_nonzero(family_name, tmp_path, monkeypatch):
    good, _make_spec, _per_seed = FAMILY_CASES[family_name]
    _register(monkeypatch, family_name, "crashy", _crashy)
    out = tmp_path / "bench.json"
    rc = campaign_main(
        _cli_args(family_name, "crashy", good)
        + ["--jobs", "2", "--retries", "0", "-o", str(out)]
    )
    assert rc == 1
    payload = json.loads(out.read_text())
    assert payload["campaign"]["ok"] is False
    assert payload["campaign"]["infra_failures"] >= 1
    assert any(f["reason"] == "worker-crash" for f in payload["infra_failures"])


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "campaign_golden")


@needs_fork
@pytest.mark.parametrize("family_name", IN_PROCESS_FAMILIES)
def test_cli_payload_matches_parent_commit_golden(family_name, tmp_path):
    # tests/fixtures/campaign_golden/*.json were written by the per-family
    # tools this harness replaced (determinism.json by the family itself,
    # holding the digests the standalone tool it replaced wrote), with the
    # arguments recorded in their meta blocks. The one CLI must reproduce
    # them — serially and fanned out — with the same meta key set.
    with open(os.path.join(GOLDEN_DIR, f"{family_name}.json")) as fh:
        golden = json.load(fh)
    args = [
        family_name,
        "--seeds", str(golden["meta"]["seeds"]),
        "--scenarios", *golden["meta"]["scenarios"],
        "-q",
    ]
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.json"
        assert campaign_main(args + ["--jobs", jobs, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        equal, diff = payloads_equal_modulo_meta(payload, golden)
        assert equal, f"--jobs {jobs} payload differs from the golden in {diff}"
        assert list(payload) == list(golden)  # same sections, same order
        assert set(payload["meta"]) == set(golden["meta"])
        assert payload["meta"]["jobs"] == int(jobs)
    if family_name == "overload":
        assert len(golden["knee"]) == 8  # the sweep rode the same runner


SHARED_FLAGS = {
    "--seeds", "--scenarios", "--output", "--quiet", "--jobs", "--run-timeout",
    "--retries",
}


@pytest.mark.parametrize(
    "family_name, own",
    [
        ("chaos", {"--sanitize", "--detection-us", "--detection-misses"}),
        ("overload", {"--sanitize", "--no-sweep"}),
        ("ops", {"--sanitize"}),
        ("dist", {"--quick"}),
        ("determinism", {"--sanitize"}),
    ],
)
def test_cli_subcommand_keeps_exactly_its_old_tools_flags(family_name, own, capsys):
    with pytest.raises(SystemExit) as excinfo:
        campaign_main([family_name, "--help"])
    assert excinfo.value.code == 0
    usage = capsys.readouterr().out
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", usage)) - {"--help"}
    assert flags == SHARED_FLAGS | own
    # dist runs are real processes: the only family with a default budget
    expected = "(default 180.0)" if family_name == "dist" else "(default None)"
    assert expected in usage
