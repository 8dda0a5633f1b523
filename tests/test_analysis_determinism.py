"""Determinism-checker coverage (DESIGN.md §9.3).

The digest pipeline is itself part of the trusted base: `_canon` must
erase container-order noise without erasing real differences, and a
scenario run twice under one seed must digest identically — that is the
property the CI determinism-smoke job gates on.
"""

from repro.analysis.determinism import (
    ENGINE_COUNTERS,
    _canon,
    chaos_digest,
    check_determinism,
    engine_counters_of,
    observable_digest,
    overload_digest,
    run_equivalence_once,
    runtime_digest,
)


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
        assert chaos_digest("nf-crash", seed=3) == chaos_digest("nf-crash", seed=3)

    def test_chaos_digest_repeats_share_one_reference_run(self, monkeypatch):
        # the clean reference is never digested; re-running it per digest
        # doubled the cost of every determinism case
        import repro.chaos.campaign as campaign

        calls = []
        real = campaign._reference_run

        def counting(seed, spec):
            calls.append((seed, spec.name))
            return real(seed, spec)

        monkeypatch.setattr(campaign, "_reference_run", counting)
        digests = {chaos_digest("nf-crash", seed=3) for _ in range(3)}
        assert len(digests) == 1
        assert calls == [(3, "nf-crash")]
        # and the digest does not depend on where the reference came from
        monkeypatch.undo()
        assert digests == {chaos_digest("nf-crash", seed=3)}

    def test_overload_run_digests_identically_per_seed(self):
        assert overload_digest("overload-burst", seed=3) == overload_digest(
            "overload-burst", seed=3
        )

    def test_check_determinism_report_shape(self):
        report = check_determinism(seeds=[0], runs=2, chaos=["nf-crash"])
        assert report["ok"] is True
        assert report["mismatches"] == []
        (case,) = report["cases"]
        assert case["kind"] == "chaos"
        assert case["scenario"] == "nf-crash"
        assert len(case["digests"]) == 2
        assert len(set(case["digests"])) == 1


class TestCrashedProcessFailsTheRun:
    """A worker that dies of an exception used to show only downstream
    (undeleted packets); the checks now name it and fail the case."""

    def _break_the_fast_path(self, monkeypatch):
        from repro.core.fastpath import FastPathExecutor

        def broken(self, packet):
            raise AttributeError("'NoneType' object has no attribute 'append'")

        monkeypatch.setattr(FastPathExecutor, "execute", broken)

    def test_equivalence_gate_reports_the_worker_by_name(self, monkeypatch):
        from repro.analysis.determinism import check_fastpath_equivalence

        self._break_the_fast_path(monkeypatch)
        report = check_fastpath_equivalence([3], packets=60, flows=4)
        assert report["ok"] is False
        (case,) = report["cases"]
        assert "crashed" in case["error"] and "firewall-0-w" in case["error"]
        assert "AttributeError" in case["error"]

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
        report = check_determinism(seeds=[0], runs=2, chaos=["nf-crash"])
        assert report["ok"] is False
        (case,) = report["cases"]
        assert "doomed-worker" in case["error"] and case["digests"] == []
