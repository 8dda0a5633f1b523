"""Determinism-checker coverage (DESIGN.md §9.3).

The digest pipeline is itself part of the trusted base: `_canon` must
erase container-order noise without erasing real differences, and a
scenario run twice under one seed must digest identically — that is the
property the ``determinism`` campaign family (and the CI
determinism-smoke job) gates on. The family must also be able to fail:
a known-answer mutant that leaks a process-global counter into a stats
field has to turn the gate red.
"""

import itertools
import json

import pytest

from repro.analysis.campaign import (
    FAMILY,
    RUNS,
    chaos_digest,
    overload_digest,
)
from repro.analysis.determinism import (
    ENGINE_COUNTERS,
    _canon,
    checked_digest,
    engine_counters_of,
    observable_digest,
    require_no_crash,
    run_equivalence_once,
    runtime_digest,
)
from repro.parallel.campaign import run_campaign
from repro.parallel.campaign import main as campaign_main


def _chaos(name, seed):
    """``chaos_digest``'s arguments for one chaos scenario."""
    return FAMILY.scenarios[f"chaos:{name}"], seed


class TestCanon:
    def test_dict_insertion_order_is_erased(self):
        assert _canon({"b": 1, "a": 2}) == _canon({"a": 2, "b": 1})

    def test_set_iteration_order_is_erased(self):
        assert _canon({3, 1, 2}) == _canon({2, 3, 1})

    def test_value_differences_survive(self):
        assert _canon({"a": 1}) != _canon({"a": 2})
        assert _canon([1, 2]) != _canon([2, 1])  # list order is meaningful

    def test_floats_canonicalise_by_repr(self):
        assert _canon(0.1 + 0.2) == repr(0.1 + 0.2)


class TestDigestHalves:
    def test_engine_counters_move_only_the_counter_half(self):
        """What the engine spent is digested apart from what the run did."""
        runtime = run_equivalence_once(3, False, packets=60, flows=4)
        observable, full = observable_digest(runtime), runtime_digest(runtime)
        counters = engine_counters_of(runtime)
        assert tuple(counters) == ENGINE_COUNTERS
        assert counters["events_processed"] == runtime.sim.events_processed > 0
        runtime.sim.events_processed += 1  # an engine that spent one event more
        assert observable_digest(runtime) == observable
        assert engine_counters_of(runtime) != counters
        assert runtime_digest(runtime) != full

    def test_anything_the_run_did_moves_the_observable_half(self):
        runtime = run_equivalence_once(3, False, packets=60, flows=4)
        observable = observable_digest(runtime)
        runtime.roots[0].stats.deleted += 1
        assert observable_digest(runtime) != observable


class TestSameSeedDigests:
    def test_chaos_run_digests_identically_per_seed(self):
        args = _chaos("nf-crash", 3)
        assert chaos_digest(*args) == chaos_digest(*args)

    def test_chaos_digest_repeats_share_one_reference_run(self, monkeypatch):
        # the clean reference is never digested, so the gate takes none:
        # one reference per (scenario, seed) was pure cost
        import repro.chaos.campaign as campaign

        calls = []
        real = campaign.clean_run

        def counting(seed, spec):
            calls.append((seed, spec.name))
            return real(seed, spec)

        # start cold: a reference an earlier test cached would hide a call
        monkeypatch.setattr(campaign, "_REFERENCE_CACHE", {})
        monkeypatch.setattr(campaign, "clean_run", counting)
        report = run_campaign("determinism", [3], scenario_names=["chaos:nf-crash"])
        (outcome,) = report.outcomes
        assert len(outcome.digests) == RUNS and len(set(outcome.digests)) == 1
        assert calls == []
        # and the digest is the one the checked run's runtime digests to
        monkeypatch.undo()
        spec = FAMILY.scenarios["chaos:nf-crash"]
        checked = []
        campaign.run_scenario(
            spec, 3, collect_runtime=lambda rt: checked.append(checked_digest(rt))
        )
        assert outcome.digests[0] == chaos_digest(*_chaos("nf-crash", 3)) == checked[0]

    def test_overload_run_digests_identically_per_seed(self):
        spec = FAMILY.scenarios["overload:overload-burst"]
        assert overload_digest(spec, 3) == overload_digest(spec, 3)

    def test_ops_run_digests_identically_per_seed(self):
        """A rolling upgrade under new flows: Figure-4 moves, run twice."""
        spec = FAMILY.scenarios["ops:upgrade-new-flows"]
        assert chaos_digest(spec, 3) == chaos_digest(spec, 3)

    def test_determinism_family_report_shape(self):
        report = run_campaign("determinism", [0], scenario_names=["chaos:nf-crash"])
        assert report.ok
        (outcome,) = report.outcomes
        assert (outcome.scenario, outcome.seed) == ("chaos:nf-crash", 0)
        assert len(outcome.digests) == RUNS == 2
        assert len(set(outcome.digests)) == 1
        payload = report.as_dict()
        assert payload["violations"] == [] and payload["failures"] == []
        assert payload["scenarios"] == {
            "chaos:nf-crash": {
                "runs": 1,
                "failed_runs": 0,
                "violations": 0,
                "digests": {"0": outcome.digests[0]},
                "seed_sensitive": None,  # one seed cannot tell
            }
        }


class TestCrashedProcessFailsTheRun:
    """A worker that dies of an exception used to show only downstream
    (undeleted packets); the checks now name it and fail the case."""

    def test_equivalence_gate_reports_the_worker_by_name(self, monkeypatch):
        from repro.core.fastpath import FastPathExecutor

        def broken(self, packet):
            raise AttributeError("'NoneType' object has no attribute 'append'")

        monkeypatch.setattr(FastPathExecutor, "execute", broken)
        on = run_equivalence_once(3, True, packets=60, flows=4)
        with pytest.raises(RuntimeError) as excinfo:
            require_no_crash(on)
        error = str(excinfo.value)
        assert "crashed" in error and "firewall-0-w" in error
        assert "AttributeError" in error

    def test_determinism_check_fails_instead_of_digesting(self, monkeypatch):
        from repro.simnet.engine import Simulator

        original = Simulator.run

        def run_with_a_crash(self, *args, **kwargs):
            def doomed():
                raise RuntimeError("boom")
                yield

            if not self.crashed:
                self.process(doomed(), name="doomed-worker")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", run_with_a_crash)
        report = run_campaign("determinism", [0], scenario_names=["chaos:nf-crash"])
        assert not report.ok and report.outcomes == []
        (failure,) = report.failures
        assert failure.scenario == "chaos:nf-crash"
        assert "doomed-worker" in failure.error


class TestKnownAnswer:
    """The gate can fail: a mutant whose second same-seed run diverges."""

    def test_a_leaking_global_counter_fails_the_gate(self, monkeypatch, tmp_path, capsys):
        import repro.core.root as root

        leak = itertools.count()

        class LeakyRootStats(root.RootStats):
            # a process-global counter leaking into a digested stats field
            def __init__(self):
                super().__init__(replayed=next(leak))

        monkeypatch.setattr(root, "RootStats", LeakyRootStats)
        out = tmp_path / "determinism.json"
        args = ["determinism", "--seeds", "1", "--scenarios", "chaos:nf-crash"]
        assert campaign_main(args + ["-q", "-o", str(out)]) == 1
        assert "INVARIANT VIOLATIONS: 1" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        (violation,) = payload["violations"]
        assert violation["invariant"] == "same-seed-digest"
        assert (violation["scenario"], violation["seed"]) == ("chaos:nf-crash", 0)
        assert payload["scenarios"]["chaos:nf-crash"]["digests"] == {"0": None}
