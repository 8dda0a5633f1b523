"""Chaos campaign framework: faults, detection, supervision, invariants.

Three layers of coverage:

* **fabric faults** — partitions, time-windowed degradation, and drop
  accounting by cause on :class:`~repro.simnet.network.Network`;
* **injection and detection** — ``fail_at(now)``, idempotent ``fail_now``,
  the heartbeat :class:`~repro.chaos.director.DetectionModel`, seeded
  random schedules, and bounded RPC retransmission (``RpcGaveUp``);
* **end-to-end scenarios** — every named scenario in
  :data:`repro.chaos.campaign.SCENARIOS` runs under a
  :class:`~repro.core.supervisor.Supervisor` and must satisfy the full
  invariant battery; a deliberately broken recovery protocol must be
  *caught* by the checkers (the regression that proves the checkers have
  teeth).
"""

import random

import pytest

from repro.chaos.campaign import SCENARIOS, ScenarioSpec, cached_reference, run_scenario
from repro.chaos.director import ChaosDirector, DetectionModel
from repro.chaos.invariants import check_invariants
from repro.chaos.schedule import (
    CrashNF,
    CrashRoot,
    CrashStore,
    LinkLossBurst,
    Schedule,
    random_schedule,
)
from repro.simnet.engine import Simulator
from repro.simnet.failures import FailureInjector
from repro.simnet.network import Link, Network
from repro.simnet.rpc import RpcEndpoint, RpcGaveUp

CRASHES = (CrashNF, CrashRoot, CrashStore)


# ----------------------------------------------------------------------
# fabric faults
# ----------------------------------------------------------------------


class TestPartition:
    def test_cross_group_messages_dropped(self, sim, network):
        a = network.register("a")
        b = network.register("b")
        network.partition([["a"], ["b"]])
        network.send("a", "b", "x")
        sim.run()
        assert len(b) == 0
        assert network.drops["partition"] == 1
        assert network.dropped == 1
        assert len(a) == 0

    def test_same_group_and_unlisted_flow_freely(self, sim, network):
        network.register("a1")
        a2 = network.register("a2")
        b = network.register("b")
        free = network.register("free")
        network.partition([["a1", "a2"], ["b"]])
        network.send("a1", "a2", "intra")
        network.send("a1", "free", "to-unlisted")
        network.send("free", "b", "from-unlisted")
        sim.run()
        assert len(a2) == 1 and len(free) == 1 and len(b) == 1
        assert network.drops["partition"] == 0

    def test_heal_restores_delivery(self, sim, network):
        b = network.register("b")
        network.register("a")
        network.partition([["a"], ["b"]])
        assert network.partitioned
        network.heal()
        assert not network.partitioned
        network.send("a", "b", "x")
        sim.run()
        assert len(b) == 1


class TestDegradation:
    def test_loss_burst_is_time_windowed(self, sim, network):
        inbox = network.register("dst")
        network.degrade(loss=1.0, duration_us=100.0)
        for _ in range(5):
            network.send("src", "dst", "in-window")
        sim.run()
        assert network.drops["loss"] == 5 and len(inbox) == 0
        # past the window the same traffic flows again (lazy pruning)
        sim.schedule(200.0, lambda: None)
        sim.run()
        for _ in range(5):
            network.send("src", "dst", "after")
        sim.run()
        assert len(inbox) == 5

    def test_latency_spike_delays_matching_traffic(self, sim, network):
        network.register("dst")
        network.degrade(src="slow", extra_latency_us=100.0)
        network.send("slow", "dst", "delayed")
        sim.run()
        assert sim.now == pytest.approx(114.0)  # 14 base + 100 spike

    def test_degradation_src_filter(self, sim, network):
        inbox = network.register("dst")
        network.degrade(src="noisy", loss=1.0)
        network.send("clean", "dst", "ok")
        network.send("noisy", "dst", "lost")
        sim.run()
        assert len(inbox) == 1
        assert network.drops["loss"] == 1

    def test_remove_degradation(self, sim, network):
        inbox = network.register("dst")
        degradation = network.degrade(loss=1.0)
        network.remove_degradation(degradation)
        network.send("src", "dst", "x")
        sim.run()
        assert len(inbox) == 1

    def test_loss_composes_with_link_loss(self, sim):
        network = Network(sim, Link(latency_us=1.0, loss=0.5), seed=11)
        network.register("dst")
        network.degrade(loss=0.5)  # composed: 1 - 0.5*0.5 = 75% drop
        n = 2000
        for _ in range(n):
            network.send("src", "dst", "x")
        sim.run()
        assert network.drops["loss"] / n == pytest.approx(0.75, abs=0.05)


class TestDropAccounting:
    def test_each_cause_attributed(self, sim):
        network = Network(sim, Link(latency_us=1.0), seed=2)
        network.register("down")
        network.set_down("down")
        network.register("a")
        network.register("b")

        network.send("src", "ghost", "x")  # unregistered
        network.send("src", "down", "x")  # endpoint down
        network.partition([["a"], ["b"]])
        network.send("a", "b", "x")  # partition
        network.heal()
        network.degrade(loss=1.0, duration_us=10.0)
        network.send("a", "b", "x")  # loss
        sim.run()
        assert network.drops == {
            "loss": 1,
            "endpoint_down": 1,
            "unregistered": 1,
            "partition": 1,
        }
        assert network.dropped == 4


# ----------------------------------------------------------------------
# injection, detection, schedules, RPC hardening
# ----------------------------------------------------------------------


class _Crashable:
    def __init__(self):
        self.alive = True

    def fail(self):
        self.alive = False


class TestFailureInjector:
    def test_fail_at_current_instant(self, sim):
        injector = FailureInjector(sim)
        target = _Crashable()
        sim.schedule(10.0, lambda: injector.fail_at(sim.now, target))
        sim.run()
        assert not target.alive
        assert injector.failed == [target]

    def test_fail_at_past_rejected(self, sim):
        injector = FailureInjector(sim)
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            injector.fail_at(5.0, _Crashable())

    def test_fail_now_idempotent(self, sim):
        injector = FailureInjector(sim)
        notified = []
        injector.on_failure(notified.append)
        target = _Crashable()
        injector.fail_now(target)
        injector.fail_now(target)
        assert notified == [target]
        assert injector.failed == [target]

    def test_out_of_band_death_not_renotified(self, sim):
        injector = FailureInjector(sim)
        notified = []
        injector.on_failure(notified.append)
        target = _Crashable()
        target.fail()  # died outside the injector
        injector.fail_now(target)
        assert notified == []
        assert injector.failed == [target]


class TestDetectionModel:
    def test_instantaneous_by_default(self):
        rng = random.Random(0)
        assert DetectionModel().latency_us(rng) == 0.0
        assert DetectionModel(heartbeat_interval_us=0.0).latency_us(rng) == 0.0

    def test_heartbeat_latency_bounds(self):
        rng = random.Random(3)
        model = DetectionModel(heartbeat_interval_us=50.0, misses=2)
        for _ in range(100):
            latency = model.latency_us(rng)
            assert 50.0 <= latency < 100.0

    def test_detection_delays_supervisor_notification(self, sim):
        director = ChaosDirector(
            sim, detection=DetectionModel(heartbeat_interval_us=40.0), seed=5
        )
        seen_at = []
        director.on_failure(lambda c: seen_at.append(sim.now))
        target = _Crashable()
        target.name = "t"
        director.fail_at(10.0, target)
        sim.run()
        assert not target.alive  # the crash itself is immediate
        assert len(seen_at) == 1 and seen_at[0] > 10.0
        assert director.failed_at["t"] == 10.0
        assert director.detected_at["t"] == seen_at[0]


class TestRandomSchedule:
    def test_same_seed_same_schedule(self):
        a = random_schedule(42, (100.0, 5_000.0), n_faults=4)
        b = random_schedule(42, (100.0, 5_000.0), n_faults=4)
        assert a.actions == b.actions

    def test_different_seeds_differ(self):
        schedules = {
            repr(random_schedule(seed, (100.0, 5_000.0), n_faults=4).actions)
            for seed in range(8)
        }
        assert len(schedules) > 1

    def test_max_crashes_bounds_pileups(self):
        schedule = random_schedule(
            7, (0.0, 1_000.0), n_faults=12, crash_weight=1.0, max_crashes=2
        )
        assert sum(isinstance(a, CRASHES) for a in schedule.actions) <= 2

    def test_actions_inside_window(self):
        schedule = random_schedule(9, (200.0, 300.0), n_faults=6)
        assert all(200.0 <= action.at_us <= 300.0 for action in schedule.actions)


class TestRpcHardening:
    def _echo_server(self, sim, endpoint):
        def loop():
            while True:
                request = yield endpoint.requests.get()
                endpoint.respond(request, ("echo", request.payload))

        sim.process(loop(), name=f"echo({endpoint.name})")

    def test_retransmission_survives_heavy_loss(self, sim):
        network = Network(sim, Link(latency_us=2.0, loss=0.6), seed=13)
        client = RpcEndpoint(sim, network, "client")
        server = RpcEndpoint(sim, network, "server")
        self._echo_server(sim, server)
        results = []

        def caller():
            value = yield from client.call(
                "server", "ping", timeout_us=20.0, max_retries=10
            )
            results.append(value)

        sim.process(caller())
        sim.run()
        assert results == [("echo", "ping")]
        assert network.rpc_retries > 0

    def test_gave_up_after_budget(self, sim):
        network = Network(sim, Link(latency_us=2.0), seed=13)
        client = RpcEndpoint(sim, network, "client")
        outcome = []

        def caller():
            try:
                yield from client.call("ghost", "ping", timeout_us=10.0, max_retries=3)
            except RpcGaveUp as exc:
                outcome.append(exc)

        sim.process(caller())
        sim.run()
        assert len(outcome) == 1
        assert network.rpc_gaveups == 1
        assert network.rpc_timeouts == 4  # initial attempt + 3 retries

    def test_callable_dst_reresolved_per_attempt(self, sim):
        network = Network(sim, Link(latency_us=2.0), seed=13)
        client = RpcEndpoint(sim, network, "client")
        replacement = RpcEndpoint(sim, network, "server-r1")
        self._echo_server(sim, replacement)
        routing = {"server": "server-r0"}  # dead address at first
        results = []

        def swap():
            yield sim.timeout(25.0)
            routing["server"] = "server-r1"

        def caller():
            value = yield from client.call(
                lambda: routing["server"], "ping", timeout_us=20.0, max_retries=5
            )
            results.append(value)

        sim.process(swap())
        sim.process(caller())
        sim.run()
        assert results == [("echo", "ping")]

    def test_backoff_is_deterministic_per_seed(self):
        def timeout_instants(seed):
            sim = Simulator()
            network = Network(sim, Link(latency_us=2.0), seed=seed)
            client = RpcEndpoint(sim, network, "client")
            instants = []

            def caller():
                try:
                    yield from client.call(
                        "ghost", "ping", timeout_us=10.0, max_retries=4
                    )
                except RpcGaveUp:
                    instants.append(sim.now)

            sim.process(caller())
            sim.run()
            return instants

        assert timeout_instants(1) == timeout_instants(1)
        assert timeout_instants(1) != timeout_instants(2)


# ----------------------------------------------------------------------
# end-to-end scenarios under supervision
# ----------------------------------------------------------------------

def _run(spec, seed, detection=None):
    """run_scenario with the campaign's reference cache (keeps tests fast)."""
    return run_scenario(
        spec, seed, detection=detection, reference=cached_reference(spec, seed)
    )


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_holds_invariants(self, name):
        outcome = _run(SCENARIOS[name], seed=1)
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        if any(isinstance(a, CRASHES) for a in SCENARIOS[name].build_schedule(1).actions):
            assert outcome.recovery_us  # something actually failed over

    def test_heartbeat_detection_correlated_crash(self):
        # staggered detection of a correlated NF+root crash: the supervisor
        # must discover the dead root before running NF failover
        outcome = _run(
            SCENARIOS["nf-plus-root"],
            seed=1,
            detection=DetectionModel(heartbeat_interval_us=50.0, misses=2),
        )
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        kinds = [e["kind"] for e in outcome.timeline]
        assert kinds.count("recovered") == 2

    def test_a_clean_nf_plus_root_run_leaves_no_root_log_keys(self):
        """The root's delete of a store-kept log entry removes the key: a
        finished run's store keeps no dead key per packet the roots ever
        logged for every checkpoint to copy (80 of them before)."""
        stores = []
        outcome = run_scenario(
            SCENARIOS["nf-plus-root"], 1,
            reference=cached_reference(SCENARIOS["nf-plus-root"], 1),
            collect_runtime=lambda runtime: stores.extend(runtime.stores),
        )
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        root_keys = [key for store in stores for key in store.keys("__root__")]
        assert [key for key in root_keys if "_log\x1f" in key] == []

    def test_timeline_ordering_and_detection_split(self):
        outcome = _run(
            SCENARIOS["nf-crash"],
            seed=3,
            detection=DetectionModel(heartbeat_interval_us=30.0),
        )
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        events = {e["kind"]: e["at_us"] for e in outcome.timeline}
        assert (
            events["failed"]
            < events["detected"]
            <= events["recovery_started"]
            <= events["recovered"]
        )
        component = next(iter(outcome.recovery_us))
        # protocol time excludes detection latency, recovery time includes it
        assert outcome.protocol_us[component] < outcome.recovery_us[component]

    def test_store_recovery_over_lossy_fabric(self):
        # recover_store_instance must make progress over a 5% lossy fabric
        # (the companion NF case is the "lossy-link" scenario above)
        spec = ScenarioSpec(
            name="lossy-store-crash",
            description="5% control-plane loss + a store crash",
            build_schedule=lambda _seed: Schedule(
                [
                    LinkLossBurst(at_us=0.0, loss=0.05, duration_us=None),
                    CrashStore(at_us=150.0, name="store0"),
                ]
            ),
            expect_log_drained=False,
        )
        outcome = _run(spec, seed=2)
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        assert outcome.recovery_us


class TestBrokenRecoveryCaught:
    def test_invariant_checkers_flag_noop_nf_failover(self):
        """A recovery protocol that silently does nothing must be caught."""
        from repro.chaos.campaign import (
            HORIZON_US,
            build_runtime,
            inject_workload,
        )
        from repro.simnet.monitor import RecoveryTimeline

        spec = SCENARIOS["nf-crash"]
        reference = cached_reference(spec, 1)

        def broken_nf_failover(runtime, component):
            return None
            yield  # pragma: no cover - makes this a generator

        sim = Simulator()
        runtime = build_runtime(sim, 1)
        timeline = RecoveryTimeline()
        director = ChaosDirector(
            sim, network=runtime.network, seed=1, timeline=timeline
        )
        supervisor = runtime.attach_supervisor(
            director,
            timeline=timeline,
            recovery_overrides={"nf": broken_nf_failover},
        )
        director.execute(spec.build_schedule(1), runtime)
        inject_workload(sim, runtime)
        sim.run(until=HORIZON_US)

        violations = check_invariants(
            runtime, reference=reference, supervisor=supervisor
        )
        flagged = {violation.invariant for violation in violations}
        # the crashed instance's packets never reached the sink and its
        # state was never replayed -> the loss/completeness checkers fire
        assert flagged & {"loss-free-state", "egress-complete", "log-drained"}
