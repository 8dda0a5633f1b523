"""Overload resilience (§8): bounded queues, backpressure, admission
control, the circuit breaker, and the closed-loop autoscaler."""

from dataclasses import replace
from functools import partial

import pytest

from repro.chaos.campaign import EntryCounterNF, SinkCounterNF, build_runtime, disturbed_run
from repro.chaos.invariants import check_sheds_accounted
from repro.chaos.overload import SCENARIOS, autoscaled, measure, measure_load_point
from repro.chaos.schedule import CrashNF, CrashRoot, Schedule
from repro.analysis.runtime import sanitized
from repro.core.chain_runtime import ChainRuntime, RuntimeParams
from repro.core.dag import LogicalChain
from repro.core.instance import POLICY_SHED
from repro.nfs.firewall import Firewall
from repro.nfs.load_balancer import LoadBalancer
from repro.nfs.nat import Nat
from repro.simnet.engine import Channel, Simulator
from repro.simnet.failures import FailureInjector
from repro.simnet.nic import Nic
from repro.traffic.packet import ACK, SYN, FiveTuple, Packet
from repro.store.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.store.keys import StateKey
from tests.conftest import make_packet


# ----------------------------------------------------------------------
# bounded channels (simnet)
# ----------------------------------------------------------------------


class TestBoundedChannel:
    def test_put_refused_at_capacity(self, sim):
        ch = Channel(sim, name="q", capacity=2)
        assert ch.put("a") and ch.put("b")
        assert not ch.put("c")
        assert len(ch) == 2

    def test_put_forced_bypasses_capacity(self, sim):
        ch = Channel(sim, name="q", capacity=1)
        assert ch.put("a")
        ch.put_forced("control")
        assert len(ch) == 2

    def test_put_accepted_when_getter_waiting(self, sim):
        # a waiting consumer means the item never occupies the buffer
        ch = Channel(sim, name="q", capacity=1)
        got = []

        def consumer():
            got.append((yield ch.get()))
            got.append((yield ch.get()))

        sim.process(consumer())
        ch.put("x")
        sim.run()
        assert ch.put("y")  # capacity 1, but the getter takes it directly
        sim.run()
        assert got == ["x", "y"]

    def test_space_event_fires_on_drain(self, sim):
        ch = Channel(sim, name="q", capacity=1)
        ch.put("a")
        assert not ch.has_space()
        fired = []

        def producer():
            yield ch.space_event()
            fired.append(sim.now)
            assert ch.put("b")

        def consumer():
            yield sim.timeout(5.0)
            yield ch.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert fired == [5.0]
        assert len(ch) == 1

    def test_space_event_immediate_when_unbounded(self, sim):
        ch = Channel(sim, name="q")
        assert ch.space_event().triggered
        assert ch.has_space()


# ----------------------------------------------------------------------
# NIC finite ring
# ----------------------------------------------------------------------


class TestNicRing:
    def test_tail_drop_counted_and_reported(self, sim):
        dropped = []
        nic = Nic(
            sim, 10.0, deliver=lambda item: None, queue_limit=2,
            on_drop=dropped.append,
        )
        sent = [nic.send(f"p{i}", 8_000) for i in range(5)]
        # ring of 2 (one may already be with the drain process)
        assert not all(sent)
        assert nic.drops == sent.count(False)
        assert dropped and len(dropped) == nic.drops

    def test_never_drop_exempts_control_items(self, sim):
        nic = Nic(
            sim, 10.0, deliver=lambda item: None, queue_limit=1,
            never_drop=lambda item: item == "marker",
        )
        for i in range(4):
            nic.send(f"p{i}", 8_000)
        assert nic.send("marker", 8_000)
        assert nic.drops > 0
        sim.run()
        assert nic.tx_packets >= 1  # the marker was transmitted, not shed

    def test_deliver_wait_backpressure(self, sim):
        """A receiver returning False parks the drain until space frees."""
        inbox = Channel(sim, name="inbox", capacity=1)
        nic = Nic(
            sim, 10.0, deliver=inbox.put, queue_limit=8,
            deliver_wait=inbox.space_event,
        )
        for i in range(3):
            nic.send(f"p{i}", 1_000)
        sim.run(until=100.0)
        # inbox full with one packet; drain is stalled, nothing dropped
        assert len(inbox) == 1
        assert nic.deliver_stalls >= 1
        assert nic.drops == 0
        taken = []

        def consume():
            while len(taken) < 3:
                taken.append((yield inbox.get()))

        sim.process(consume())
        sim.run()
        assert taken == ["p0", "p1", "p2"]
        assert nic.tx_packets == 3


# ----------------------------------------------------------------------
# NF instance overload policies
# ----------------------------------------------------------------------


class TestInstancePolicies:
    def _runtime(self, sim, **overrides):
        return build_runtime(sim, seed=3, **overrides)

    def test_drop_policy_sheds_into_ledger(self, sim):
        runtime = self._runtime(
            sim, instance_queue_capacity=3, overload_policy="drop"
        )
        instance = runtime.instances["entry-0"]
        for i in range(5):
            assert instance.enqueue(make_packet(sport=2000 + i))
        assert instance.stats.shed == 2
        assert runtime.network.drops["overload_queue"] == 2
        assert instance.queue_depth == 3

    def test_shed_policy_evicts_lower_priority(self, sim):
        runtime = self._runtime(
            sim, instance_queue_capacity=3, overload_policy=POLICY_SHED
        )
        instance = runtime.instances["entry-0"]
        low = [make_packet(sport=2000 + i, priority=0) for i in range(3)]
        for packet in low:
            instance.enqueue(packet)
        vip = make_packet(sport=3000, priority=5)
        assert instance.enqueue(vip)
        assert instance.queue_depth == 3  # the VIP took a victim's place...
        assert instance.stats.shed == 1  # ...one low-priority packet, evicted
        assert runtime.network.drops["overload_queue"] == 1
        # and a packet that outranks nobody is itself the one shed
        assert instance.enqueue(make_packet(sport=2003, priority=0))
        assert instance.queue_depth == 3
        assert instance.stats.shed == 2
        sim.run(until=10_000.0)
        assert instance.stats.processed == 3
        assert [p.five_tuple.src_port for _v, p in runtime.egress.items()].count(3000) == 1

    def test_control_packets_never_shed(self, sim):
        runtime = self._runtime(
            sim, instance_queue_capacity=1, overload_policy="drop"
        )
        instance = runtime.instances["entry-0"]
        instance.enqueue(make_packet(sport=2000))
        replayed = make_packet(sport=2001)
        replayed.replayed = True
        assert instance.enqueue(replayed)
        assert instance.stats.shed == 0
        assert instance.queue_depth == 2  # forced past the bound

    def test_block_policy_enqueue_refuses_when_full(self, sim):
        runtime = self._runtime(
            sim, instance_queue_capacity=2, overload_policy="block"
        )
        instance = runtime.instances["entry-0"]
        # One flow, so one worker queue (bound 1): it fills, the receive
        # side parks holding the next packet, the input (bound 2) fills
        # behind it — and only then is the sender refused.
        taken = [instance.enqueue(make_packet(sport=2000)) for _ in range(6)]
        assert taken == [True, True, True, True, False, False]
        assert instance.queue_depth == 3  # worker queue + input; one in hand
        assert instance.input.depth_peak == 2
        assert instance.stats.shed == 0  # refused upstream, not shed
        sim.run(until=10_000.0)
        assert instance.stats.processed == 4 and instance.queue_depth == 0


# ----------------------------------------------------------------------
# BLOCK end to end: the receive side routes directly and parks on a full
# worker queue; backpressure climbs hop by hop and drains back down
# ----------------------------------------------------------------------


class TestBlockBackpressureChain:
    FLOWS = 4

    def _run(self, sim):
        """entry -> exit, one worker each, bounds of 4 everywhere, ``exit``
        20x slower than the link: four warm-up packets (the cold-cache
        store round trips), then a burst the exit cannot keep up with."""
        runtime = build_runtime(
            sim, 3, overload_policy="block", instance_queue_capacity=4,
            nic_queue_limit=4, n_workers=1, proc_time_overrides={"exit": 40.0},
            checkpoint_interval_us=None,
        )

        def source():
            for index in range(28):
                flow = index % self.FLOWS
                runtime.inject(Packet(
                    FiveTuple("10.0.0.1", "52.0.0.1", 1000 + flow, 80, 6),
                    payload=f"f{flow}-{index // self.FLOWS}",
                ))
                yield sim.timeout(100.0 if index < self.FLOWS else 1.5)

        sim.process(source())
        sim.run(until=1_000_000)
        return runtime

    def test_a_slow_worker_backs_the_whole_path_up_and_it_drains(self, sim):
        with sanitized() as suite:
            edges = set()
            add = suite.waits.add

            def spy(src, dst, soft=False):
                if not soft:
                    edges.add((src, dst))
                add(src, dst, soft=soft)

            suite.waits.add = spy
            runtime = self._run(sim)
            exit_0 = runtime.instances["exit-0"]
            nic = exit_0.nic
            # the relay parked on the full worker queue and the input filled,
            assert exit_0._worker_queues[0].depth_peak == exit_0.worker_capacity == 4
            assert exit_0.input.depth_peak == 4
            # so the NIC stalled on it and its ring filled,
            assert nic.deliver_stalls > 0 and nic.txq_depth_peak == 4
            # so the upstream worker's emit waited for ring space
            assert edges >= {
                ("rx:exit-0", "wkr:exit-0"),
                ("nic:exit-0", "rx:exit-0"),
                ("wkr:entry-0", "nic:exit-0"),
            }
            # ...and every one of those waits ended
            assert suite.waits._edges == {}
        assert sim.crashed == []
        assert exit_0.queue_depth == 0 and exit_0._rx_held is None
        # nothing vanished: what did not egress was a counted ring drop (the
        # has_space check races the link-delayed send), and the log drained
        root = runtime.roots[0]
        assert len(runtime.egress) + runtime.network.drops["nic_ring"] == 28
        assert (root.stats.injected, root.stats.deleted, len(root.log)) == (28, 28, 0)
        assert check_sheds_accounted(runtime, 28) == []
        # per-flow order survived the parking and the drain
        per_flow = {}
        for _vertex, packet in runtime.egress.items():
            flow, seq = packet.payload.split("-")
            per_flow.setdefault(flow, []).append(int(seq))
        assert len(per_flow) == self.FLOWS
        assert all(seqs == sorted(seqs) for seqs in per_flow.values())

    def test_failing_a_parked_instance_releases_its_wait_edge(self, sim):
        with sanitized() as suite:
            runtime = build_runtime(
                sim, 3, overload_policy="block", instance_queue_capacity=2, n_workers=1
            )
            instance = runtime.instances["entry-0"]
            for _ in range(3):
                instance.enqueue(make_packet(sport=2000))
            assert instance._rx_held is not None
            assert suite.waits._edges == {"rx:entry-0": {"wkr:entry-0": 1}}
            instance.fail()
            assert suite.waits._edges == {}
            # the parked callback still fires (fail() cleared the queue)
            sim.run(until=10_000.0)
            assert instance._rx_held is None and instance.queue_depth == 0


# ----------------------------------------------------------------------
# a crash in the middle of a BLOCK chain (two bugs, one repro)
# ----------------------------------------------------------------------


def crash_mid_burst(capacity):
    """firewall -> nat -> lb under BLOCK with every bound at ``capacity``:
    16 flows open at leisure, then 584 packets arrive 1.2 us apart (just
    over line rate) and nat-0 crashes 200 us into the burst; an attached
    supervisor fails it over and replays the root log at nat-0r. Returns
    the runtime and the corpse (which failover strikes from the runtime)."""
    flows, packets = 16, 600
    sim = Simulator()
    chain = LogicalChain("crash-under-block")
    chain.add_vertex("firewall", Firewall, entry=True)
    chain.add_vertex("nat", Nat)
    chain.add_vertex("lb", LoadBalancer)
    chain.add_edge("firewall", "nat")
    chain.add_edge("nat", "lb")
    runtime = ChainRuntime(sim, chain, params=RuntimeParams(
        overload_policy="block", instance_queue_capacity=capacity,
        nic_queue_limit=capacity,
    ))
    injector = FailureInjector(sim)
    runtime.attach_supervisor(injector)

    def source():
        for index in range(packets):
            flow = index % flows
            opening = index < flows
            runtime.inject(Packet(
                FiveTuple(f"10.0.0.{1 + flow}", "52.0.0.1", 5000 + flow, 80, 6),
                flags=SYN if opening else ACK,
                payload=f"f{flow}-{index // flows}",
            ))
            yield sim.timeout(40.0 if opening else 1.2)

    sim.process(source())
    victim = runtime.instances["nat-0"]
    injector.fail_at(flows * 40.0 + 200.0, victim)
    sim.run(until=2_000_000)
    assert sim.crashed == []
    return runtime, victim


class TestCrashUnderBackpressure:
    def _assert_recovered(self, runtime):
        root = runtime.roots[0]
        replacement = runtime.instances["nat-0r"]
        assert not replacement._buffering and replacement._live_buffer == []
        assert replacement._replay_seen == replacement._replay_release > 0
        assert all(i.queue_depth == 0 for i in runtime.instances.values())
        assert (root.stats.injected, root.stats.deleted, len(root.log)) == (600, 600, 0)

    def test_a_dead_instance_does_not_wedge_its_upstream(self):
        # Bounds of 4: packets in flight to the dead nat-0 used to pile up
        # in its input, park its NIC for good and, ring full, freeze every
        # firewall worker in _await_hop_space — nat-0r never saw a packet.
        runtime, victim = crash_mid_burst(4)
        assert runtime.instances["firewall-0"].stats.processed > 300
        assert runtime.instances["nat-0r"].stats.processed > 100
        assert victim.queue_depth == 0  # taken and discarded
        assert "nat-0" not in runtime.instances
        self._assert_recovered(runtime)

    def test_a_shed_replayed_copy_still_counts_towards_its_generation(self, monkeypatch):
        # Bounds of 64: no wedge, but live traffic steals entry-ring slots
        # from replayed copies; the shed ones never reached nat-0r, which
        # kept waiting for them with 400 live packets buffered.
        shed_replays = []
        note_shed = ChainRuntime.note_shed

        def spy(self, instance, packet, cause="overload_queue"):
            if packet.replayed:
                shed_replays.append(packet.replay_target)
            note_shed(self, instance, packet, cause)

        monkeypatch.setattr(ChainRuntime, "note_shed", spy)
        runtime, _victim = crash_mid_burst(64)
        assert shed_replays and set(shed_replays) == {"nat-0r"}
        self._assert_recovered(runtime)


# ----------------------------------------------------------------------
# store admission control + circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self, sim):
        breaker = CircuitBreaker(
            sim, failure_threshold=3, open_us=100.0, jitter_frac=0.0
        )
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allows_request()

    def test_success_resets_failure_streak(self, sim):
        breaker = CircuitBreaker(sim, failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_slow_call_counts_as_failure(self, sim):
        breaker = CircuitBreaker(
            sim, failure_threshold=1, slow_call_us=50.0, jitter_frac=0.0
        )
        breaker.record_result(elapsed_us=80.0)
        assert breaker.state == OPEN
        assert breaker.stats.slow_calls == 1

    def test_half_open_probe_closes_on_success(self, sim):
        breaker = CircuitBreaker(
            sim, failure_threshold=1, open_us=100.0, jitter_frac=0.0
        )
        breaker.record_failure()
        acquired = []

        def caller():
            yield from breaker.acquire()  # waits out the open window
            acquired.append(sim.now)
            assert breaker.state == HALF_OPEN
            breaker.record_success()

        sim.process(caller())
        sim.run(until=1_000.0)
        assert acquired and acquired[0] >= 100.0
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens(self, sim):
        breaker = CircuitBreaker(
            sim, failure_threshold=1, open_us=100.0, jitter_frac=0.0
        )
        breaker.record_failure()
        first_open_until = breaker._open_until

        def caller():
            yield from breaker.acquire()
            breaker.record_failure()

        sim.process(caller())
        sim.run(until=1_000.0)
        assert breaker.state == OPEN
        assert breaker.stats.opens == 2
        assert breaker._open_until > first_open_until


def run_overload(spec, seed=0, autoscale=False):
    """One overload run through the one driver, measured and checked."""
    return measure(disturbed_run(autoscaled(spec) if autoscale else spec, seed))


class TestStoreAdmission:
    def test_rejections_are_retried_not_lost(self):
        spec = replace(
            SCENARIOS["overload-burst"],
            runtime_overrides=dict(store_inflight_limit=2),
        )
        outcome = run_overload(spec)
        assert outcome.store_overload_rejections > 0
        assert outcome.ok, [v.as_dict() for v in outcome.violations]

    def test_slow_store_degrades_to_stale_reads(self):
        outcome = run_overload(SCENARIOS["slow-store"])
        assert outcome.breaker_opens > 0
        assert outcome.stale_reads > 0
        assert outcome.goodput_ratio == 1.0  # stale path keeps capacity
        assert outcome.ok, [v.as_dict() for v in outcome.violations]

    def test_eo_model_retries_rejected_offloads(self):
        """EO (``wait_for_acks``): a packet awaits each offloaded op's ACK.
        An ``Overloaded`` admission reply is not that ACK — the op was not
        applied — so it must be retried, not taken as done."""
        chain = LogicalChain("eo")
        chain.add_vertex("entry", EntryCounterNF, parallelism=4, entry=True)
        chain.add_vertex("exit", SinkCounterNF)
        chain.add_edge("entry", "exit")
        sim = Simulator()
        runtime = ChainRuntime(sim, chain, RuntimeParams(
            wait_for_acks=True, caching_enabled=False, store_inflight_limit=1,
        ))
        for i in range(200):
            packet = make_packet(src=f"10.1.0.{i % 64}", sport=1000 + i % 64)
            sim.schedule(i * 0.05, runtime.inject, packet)
        sim.run(until=50_000.0)
        assert not sim.crashed
        rejections = sum(s.stats.overload_rejections for s in runtime.stores)
        assert rejections > 0
        assert rejections == sum(
            i.client.stats.overload_rejections for i in runtime.instances.values()
        )
        total = StateKey("entry", "total").storage_key()
        assert runtime.store.instance_for_key(total).peek(total) == 200


# ----------------------------------------------------------------------
# scenarios & invariants
# ----------------------------------------------------------------------


class TestOverloadScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("autoscale", [False, True])
    def test_invariants_hold(self, name, autoscale):
        outcome = run_overload(SCENARIOS[name], autoscale=autoscale)
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        assert outcome.injected > 0 and outcome.egressed > 0

    def test_burst_sheds_are_accounted(self):
        outcome = run_overload(SCENARIOS["overload-burst"])
        assert sum(outcome.sheds.values()) > 0  # 2x burst must shed
        # accounting identity: injected == egressed + ledgered sheds
        assert outcome.injected == outcome.egressed + sum(outcome.sheds.values())

    def test_nf_crash_under_overload_is_recovered_and_accounted(self):
        """A fault schedule overlays an overload run like any scenario's:
        the entry NF crashes mid-burst, the supervisor fails it over, and
        every injected packet still egresses or is in the drop ledger."""
        spec = replace(
            SCENARIOS["overload-burst"],
            build_schedule=lambda _seed: Schedule([CrashNF(at_us=1200.0, vertex="entry")]),
        )
        run = disturbed_run(spec, 0)
        outcome = measure(run)
        (record,) = run.supervisor.records
        assert record.kind == "nf" and record.ok
        # the workload reported its count, so the battery ran sheds-accounted
        assert run.injected == outcome.injected > 0
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        assert outcome.sheds["endpoint_down"] > 0  # the crash did hit traffic

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nf_crash_under_the_autoscaler_releases_the_replacement(self, seed):
        """The replay's newest log entry is deleted before its turn (its
        original pass completed meanwhile), so no replayed copy carries the
        replay-end marker. The replacement must still release its buffered
        live traffic once the whole generation was processed — it used to
        hold ~800 packets to the end of the run."""
        spec = autoscaled(replace(
            SCENARIOS["overload-burst"],
            build_schedule=lambda _seed: Schedule([CrashNF(at_us=1200.0, vertex="entry")]),
        ))
        run = disturbed_run(spec, seed)
        outcome = measure(run)
        (record,) = [r for r in run.supervisor.records if r.kind == "nf"]
        assert record.ok and record.result.replayed > 0
        replacement = run.runtime.instances[record.result.new_id]
        assert not replacement._buffering and not replacement._live_buffer
        assert outcome.ok, [v.as_dict() for v in outcome.violations]

    def test_sheds_accounted_checker_catches_silent_loss(self):
        sim = Simulator()
        runtime = build_runtime(sim, seed=0)
        # claim one more injected packet than the run can account for
        violations = check_sheds_accounted(runtime, injected=1)
        assert violations and violations[0].invariant == "sheds-accounted"

    def test_sheds_accounted_allowance_forgives_only_missing_packets(self):
        sim = Simulator()
        runtime = build_runtime(sim, seed=0)
        assert check_sheds_accounted(runtime, injected=2, loss_allowance=2) == []
        assert check_sheds_accounted(runtime, injected=3, loss_allowance=2)
        runtime.network.drops["overload_queue"] = 1  # one shed nobody injected
        (violation,) = check_sheds_accounted(runtime, injected=0, loss_allowance=8)
        assert "over-accounted" in violation.detail

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_root_crash_under_overload_is_within_the_loss_allowance(self, seed):
        """Theorem B.3.1: a root crash drops the packets inside the root.
        The shed ledger forgives them up to ``loss_allowance``, as egress
        completeness does; with no allowance the one lost packet shows."""
        crash = replace(
            SCENARIOS["overload-burst"],
            build_schedule=lambda _seed: Schedule([CrashRoot(at_us=1200.0, root_id=0)]),
        )
        allowed = run_overload(replace(crash, loss_allowance=8), seed)
        assert allowed.ok, [v.as_dict() for v in allowed.violations]
        strict = run_overload(crash, seed)
        assert [v.invariant for v in strict.violations] == ["sheds-accounted"]
        assert strict.violations[0].detail.startswith("1 packets vanished")


class TestAutoscaler:
    def test_scale_out_recovers_goodput(self):
        spec = SCENARIOS["overload-burst"]
        base = run_overload(spec, autoscale=False)
        elastic = run_overload(spec, autoscale=True)
        assert elastic.ok and base.ok
        assert elastic.autoscaler["scale_outs"] >= 1
        out = [a for a in elastic.autoscaler["actions"] if a["kind"] == "scale_out"]
        assert out and out[0]["keys_moved"] > 0  # a real Figure-4 move
        assert elastic.goodput_ratio > base.goodput_ratio

    def test_scale_in_drains_and_retires(self):
        outcome = run_overload(SCENARIOS["overload-burst"], autoscale=True)
        assert outcome.ok
        assert outcome.autoscaler["scale_ins"] >= 1
        ins = [a for a in outcome.autoscaler["actions"] if a["kind"] == "scale_in"]
        assert all(a["ok"] for a in ins)
        assert all(a["keys_moved"] > 0 for a in ins)  # state handed back

    def test_knee_moves_right_with_autoscaler(self):
        off = measure_load_point(2.0, autoscale=False, seed=0)
        on = measure_load_point(2.0, autoscale=True, seed=0)
        assert not off["violations"] and not on["violations"]
        assert on["scale_outs"] >= 1
        assert on["goodput_ratio"] > off["goodput_ratio"]


class TestStoreElasticity:
    """Store-side scale-out: rejections trip the hysteresis, a vertex is
    re-homed onto a fresh replica, and the rejection rate drops."""

    def test_rejections_drop_after_store_scale_out(self):
        spec = SCENARIOS["store-hot"]
        base = run_overload(spec, autoscale=False)
        elastic = run_overload(spec, autoscale=True)
        assert base.ok, [v.as_dict() for v in base.violations]
        assert elastic.ok, [v.as_dict() for v in elastic.violations]
        # degradation run: sustained admission-control rejections, no loss
        assert base.store_overload_rejections > 0
        assert base.autoscaler is None
        # elastic run: exactly one store scale-out, with real state moved
        assert elastic.autoscaler["store_scale_outs"] == 1
        actions = [
            a for a in elastic.autoscaler["actions"]
            if a["kind"] == "store_scale_out"
        ]
        assert len(actions) == 1 and actions[0]["keys_moved"] > 0
        # the point of the satellite: splitting the hot store sheds load
        assert (
            elastic.store_overload_rejections
            < 0.95 * base.store_overload_rejections
        )

    def test_scale_out_re_homes_exactly_one_vertex(self):
        run = disturbed_run(autoscaled(SCENARIOS["store-hot"]), 0)
        outcome = measure(run)
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        runtime = run.runtime
        assert len(runtime.stores) == 2
        original, replica = runtime.stores
        action = next(
            a for a in outcome.autoscaler["actions"]
            if a["kind"] == "store_scale_out"
        )
        vertex = action["vertex"]
        assert replica.name == action["instance"]
        # routing: the migrated vertex is pinned to the replica, the rest
        # kept their homes on the original node
        assert runtime.store.vertices_assigned_to(replica.name) == [vertex]
        others = [
            v for v in ("entry", "mid", "exit") if v != vertex
        ]
        assert runtime.store.vertices_assigned_to(original.name) == sorted(others)
        # state: the replica holds the vertex's keys; the original node
        # garbage-collected its dead copies after the drain
        assert any(key.startswith(vertex + "\x1f") for key in replica.keys())
        assert not any(
            key.startswith(vertex + "\x1f") for key in original.keys()
        )
        # the replica carries traffic, not just metadata
        assert replica.stats.ops_applied > 0

    def test_single_tenant_store_is_not_split(self):
        # overload-burst chains entry+exit onto one store, but with
        # max_stores=1 the watcher must skip rather than thrash
        spec = autoscaled(SCENARIOS["store-hot"])
        capped = replace(spec, build_runtime=partial(spec.build_runtime, max_stores=1))
        outcome = run_overload(capped)
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        assert outcome.autoscaler["store_scale_outs"] == 0
        assert outcome.autoscaler["store_skipped"] > 0
