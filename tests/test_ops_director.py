"""Maintenance director: planned day-2 operations with zero-loss gates.

Coverage in three layers:

* **end-to-end scenarios** — every named plan in
  :data:`repro.ops.campaign.SCENARIOS` (rolling upgrade, store
  replacement, topology edits, hot reload, crash-overlay) must hold the
  full invariant battery against a clean reference run;
* **gates and rollback** — a drain gate that cannot pass must abort the
  operation and restore the pre-operation structure (flows back on the
  old instance, replacement retired, vertex still spliced in);
* **first packets at the cutover** — flows nobody has seen before arrive
  in the instants just before an instance leaves service (on the hop
  link, on the wire, in a worker's hands across a blocking store call):
  a sweep over both cutovers of a rolling upgrade, and a hypothesis
  property over arrival schedules around ``handover.evacuate``;
* **primitives** — the vertex-input pause gate, the goodput monitor's
  window accounting, the operations-specific invariant checkers, and the
  chaos director's ``newest`` crash selector used by overlay schedules.
"""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.campaign import (
    HORIZON_US,
    SinkCounterNF,
    cached_reference,
    run_scenario,
)
from repro.chaos.director import ChaosDirector
from repro.chaos.invariants import (
    check_exactly_once,
    check_flow_ordering,
    check_no_downtime,
    check_operation_converged,
    snapshot_run,
)
from repro.chaos.schedule import CrashNF, Schedule
from repro.core.autoscaler import AutoscaleController
from repro.core.chain_runtime import ChainRuntime, RuntimeParams
from repro.core.dag import LogicalChain
from repro.core.handover import (
    evacuate, move_flows, owned_scope_keys, routed_scope_keys, stuck_moves,
)
from repro.core.nf_api import NetworkFunction, Output
from repro.ops.director import GoodputMonitor, MaintenanceDirector
from repro.ops.campaign import (
    N_PACKETS,
    OP_AT_US,
    SCENARIOS,
    ScrubNF,
    build_runtime,
    inject_workload,
)
from repro.simnet.engine import Simulator
from repro.simnet.monitor import RecoveryTimeline
from repro.store.spec import AccessPattern, Scope, StateObjectSpec
from repro.traffic.packet import FiveTuple, Packet

def _egress_counts(runtime):
    return Counter(packet.payload for _vertex, packet in runtime.egress._items)


def _run(spec, seed, collect_runtime=None):
    """run_scenario with the campaign's reference cache (keeps tests fast)."""
    return run_scenario(
        spec, seed, reference=cached_reference(spec, seed),
        collect_runtime=collect_runtime,
    )


# ----------------------------------------------------------------------
# end-to-end scenarios
# ----------------------------------------------------------------------


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_holds_invariants(self, name):
        outcome = _run(SCENARIOS[name], seed=1)
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        assert outcome.operations, "director recorded no operations"
        assert all(op["status"] == "completed" for op in outcome.operations)
        assert outcome.egress_count == outcome.reference_egress_count

    def test_rolling_upgrade_zero_downtime_and_slot_reuse(self):
        caught = {}
        outcome = _run(
            SCENARIOS["rolling-upgrade"],
            seed=2,
            collect_runtime=lambda rt: caught.setdefault("rt", rt),
        )
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        # zero-downtime: every goodput window overlapping the upgrade saw
        # egress traffic
        assert outcome.goodput_windows >= 1
        assert outcome.min_window_egress >= 1
        # both original instances were replaced in place: same vertex
        # parallelism, all-new IDs, and the splitter's membership matches
        runtime = caught["rt"]
        ids = runtime.vertex_instances["entry"]
        assert len(ids) == 2
        assert all("u" in i.split("-", 1)[1] for i in ids)
        assert list(runtime.splitter("entry").hash_members) == ids

    def test_crash_overlay_recovers_and_completes(self):
        outcome = _run(SCENARIOS["upgrade-crash-overlay"], seed=1)
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        kinds = [event["kind"] for event in outcome.timeline]
        # the unplanned mid-chain crash really failed over ...
        assert "recovered" in kinds
        # ... while the planned upgrade still completed
        assert [op["status"] for op in outcome.operations] == ["completed"]


class TestUpgradeMeetsWhatAProtocolLeftBehind:
    """Three day-2 sequences no campaign ran before ``ChainRuntime`` became
    the one writer of membership. At its parent: an upgrade after a finished
    failover upgraded the replacement twice and never finished (three flows'
    ``hits`` 10 of 40, 90 log entries); one whose victim crashed awaiting its
    turn evacuated the corpse (95 of 240 packets never egressed); one after a
    §5.3 mitigation picked the dead loser first."""

    def test_mitigate_then_upgrade_runs_both_arms(self):
        kept = {}
        for seed in (0, 1):  # seed parity picks the arm; 1 ran above
            outcome = _run(
                SCENARIOS["mitigate-then-upgrade"], seed,
                collect_runtime=lambda rt, seed=seed: kept.setdefault(seed, rt),
            )
            assert outcome.ok, [v.as_dict() for v in outcome.violations]
            assert [op["status"] for op in outcome.operations] == ["completed"]
            assert len(outcome.operations[0]["steps"]) == 2  # no corpse upgraded
        assert all(
            rt.vertex_instances["entry"] == ["entry-u1", "entry-u2"]
            for rt in kept.values()
        )

    @pytest.mark.parametrize("after_us", [5.0, 10.0, 20.0, 30.0, 50.0, 60.0])
    def test_victim_crashes_before_its_evacuation_begins(self, after_us):
        # +5..+30: entry-1 dies awaiting its turn and is failed over before
        # it comes — skipped; +50 / +60: its turn comes mid-failover —
        # evacuate refuses the corpse, the step rolls back, the operation
        # aborts. Never `running`. (From +62 it dies as the old side of an
        # in-flight Figure-4 move, which nothing completes: ROADMAP.)
        spec = replace(
            SCENARIOS["upgrade-victim-crash"],
            build_schedule=lambda _seed: Schedule(
                [CrashNF(at_us=OP_AT_US + after_us, instance_id="entry-1")]
            ),
        )
        outcome = _run(spec, seed=1)
        (operation,) = outcome.operations
        assert operation["status"] in ("completed", "aborted"), operation
        assert operation["finished_at"] < OP_AT_US + 1_000.0
        if after_us <= 30.0:
            assert operation["status"] == "completed" and outcome.ok
        left = [v.as_dict() for v in outcome.violations
                if v.invariant != "operation-completed"]
        assert left == []

    @pytest.mark.parametrize("at_us", [110.0, 250.0, 450.0])
    def test_scale_out_after_a_failover_sheds_only_what_its_holder_holds(self, at_us):
        # entry-1r was replayed entry-0's flows too, and its client records
        # those rejected claims as owned. A scale-out that believed the record
        # named entry-1r holder of all six flows and took flow 1001's routing
        # from entry-0, its store owner (`hits` 6..39 of 40 at 30 of 31 instants).
        controller = {}

        def plan(director):
            controller["c"] = scaler = AutoscaleController(director.runtime)
            yield director.sim.timeout(at_us)
            yield from scaler._scale_out("entry")

        spec = replace(
            SCENARIOS["upgrade-after-failover"], name="scale-out-after-failover",
            operations=plan,
        )
        kept = {}
        outcome = _run(spec, seed=1, collect_runtime=lambda rt: kept.setdefault("rt", rt))
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        runtime, (action,) = kept["rt"], controller["c"].actions
        assert (action.kind, action.ok, action.keys_moved) == ("scale_out", True, 2)
        members = runtime.instances_of("entry")
        assert [i.instance_id for i in members] == ["entry-0", "entry-1r", "entry-as1"]
        replayed = runtime.instances["entry-1r"]
        assert len(owned_scope_keys(runtime, "entry", replayed)) > len(
            routed_scope_keys(runtime, "entry", replayed)
        )
        # what each holds is what the store says it owns: six flows, once each
        held = {i.instance_id: routed_scope_keys(runtime, "entry", i) for i in members}
        assert len({key for keys in held.values() for key in keys}) == 6
        assert sum(map(len, held.values())) == 6 and len(held["entry-as1"]) == 2
        owners = runtime.stores[0]._owners
        for holder, keys in held.items():
            for key in keys:
                flow = "|".join(str(field) for field in key)
                assert owners[f"entry\x1fhits\x1f{flow}"] == holder

    def test_evacuating_a_dead_victim_returns_at_once(self):
        sim = Simulator()
        runtime = build_runtime(sim, 1)
        inject_workload(sim, runtime)
        sim.run(until=OP_AT_US)
        victim = runtime.instances["entry-1"]
        assert owned_scope_keys(runtime, "entry", victim)  # a corpse keeps them
        victim.fail()
        sent = []
        send = runtime.nics["entry-1"].send
        runtime.nics["entry-1"].send = lambda item, bits: (sent.append(item), send(item, bits))[1]
        started = sim.now
        outcome = sim.run_process(
            evacuate(runtime, victim, lambda _key: "entry-0", sim.now + 5_000.0)
        )
        assert outcome == (0, "instance died") and sim.now == started
        assert runtime.splitter("entry").overrides == {}  # no move was begun
        sim.run(until=OP_AT_US + 50.0)
        assert not [item for item in sent if getattr(item, "mark_last", False)]

    def test_a_sole_nat_keeps_its_exclusivity_across_an_upgrade(self):
        # Figure 8's EO+C+NA vs a store round trip per packet: a completed
        # upgrade used to leave the replacement listed twice in its
        # splitter, `grants_exclusive` False for good, and every new
        # connection's port pop a blocking store op (400 of 400, p50 68 us).
        from repro.nfs.nat import Nat

        sim = Simulator()
        chain = LogicalChain("nat")
        chain.add_vertex("nat", lambda: Nat(port_range=(40_000, 42_000)), entry=True)
        runtime = ChainRuntime(sim, chain, params=RuntimeParams(seed=1))
        director = MaintenanceDirector(runtime)
        measured = {}

        def blocking_ops():
            return sum(i.client.stats.blocking_ops for i in runtime.instances.values())

        def connections(batch):
            for index in range(400):
                runtime.inject(Packet(
                    FiveTuple(f"10.0.{batch}.{index % 250}", "52.0.0.1", 2000 + index, 80, 6),
                    flags=0x02,
                ))
                yield sim.timeout(5.0)
            yield sim.timeout(500.0)

        def plan():
            yield from connections(0)  # warm: seeds the shared objects
            before = blocking_ops()
            yield from connections(1)
            measured["before"] = blocking_ops() - before
            record = yield from director.rolling_upgrade("nat")
            measured["status"] = record.status
            yield from connections(2)  # the replacement's cold start
            before, done = blocking_ops(), len(runtime.egress_recorder.values)
            yield from connections(3)
            measured["after"] = blocking_ops() - before
            measured["p50"] = sorted(runtime.egress_recorder.values[done:])[200]

        sim.process(plan())
        sim.run(until=50_000.0)
        assert sim.crashed == [] and len(runtime.egress) == 1600
        assert measured["status"] == "completed"
        assert (measured["before"], measured["after"]) == (0, 0)
        assert measured["p50"] < 10.0
        splitter = runtime.splitter("nat")
        assert splitter.instances == ["nat-u1"]
        assert all(
            splitter.grants_exclusive(spec)
            for spec in runtime.instances["nat-u1"].client.specs.values()
        )


class TestVersionedUpgrade:
    def test_nf_factory_swapped_for_replacements(self):
        class ScrubNFv2(ScrubNF):
            pass

        sim = Simulator()
        runtime = build_runtime(sim, 11)
        director = MaintenanceDirector(runtime, monitor_window_us=50.0)

        def plan():
            yield sim.timeout(OP_AT_US)
            yield from director.rolling_upgrade("scrub", nf_factory=ScrubNFv2)

        sim.process(plan())
        inject_workload(sim, runtime)
        sim.run(until=HORIZON_US)

        assert [r.status for r in director.records] == ["completed"]
        assert runtime.chain.vertices["scrub"].nf_factory is ScrubNFv2
        for instance in runtime.instances_of("scrub"):
            assert isinstance(instance.nf, ScrubNFv2)


# ----------------------------------------------------------------------
# gates and rollback
# ----------------------------------------------------------------------


class TestUpgradeAbort:
    def test_drain_timeout_rolls_back(self):
        # a service time far above the packet gap keeps the entry queues
        # occupied, so the drain gate can never pass its (tiny) budget
        sim = Simulator()
        runtime = build_runtime(sim, 4, proc_time_us=400.0)
        director = MaintenanceDirector(
            runtime, drain_budget_us=60.0, monitor_window_us=50.0
        )
        before = list(runtime.vertex_instances["entry"])

        def plan():
            yield sim.timeout(OP_AT_US)
            yield from director.rolling_upgrade("entry")

        sim.process(plan())
        inject_workload(sim, runtime)
        sim.run(until=HORIZON_US)

        record = director.records[0]
        assert record.status == "aborted"
        assert "drain budget exceeded" in record.note
        # rollback: the original instances still serve the vertex and the
        # half-spawned replacement is gone
        assert runtime.vertex_instances["entry"] == before
        assert list(runtime.splitter("entry").hash_members) == before
        assert all(i in runtime.instances for i in before)
        assert not any("u" in i.split("-", 1)[1] for i in runtime.instances)
        # the chain kept running, and the rollback cost nothing: every
        # packet left exactly once and every root log drained
        assert sorted(_egress_counts(runtime).values()) == [1] * N_PACKETS
        assert all(not root.log for root in runtime.roots)
        assert sim.crashed == []

    def test_rollback_acts_on_its_gate(self):
        # the same stuck upgrade, but the replacement dies just before the
        # rollback reaches it: the rollback's own gate cannot confirm, so
        # the step closes failed and nothing is retired on its say-so (the
        # old code ignored the verdict and retired regardless)
        sim = Simulator()
        runtime = build_runtime(sim, 4, proc_time_us=400.0)
        director = MaintenanceDirector(runtime, drain_budget_us=60.0)
        before = list(runtime.vertex_instances["entry"])

        def plan():
            yield sim.timeout(OP_AT_US)
            yield from director.rolling_upgrade("entry")

        sim.process(plan())
        sim.schedule(OP_AT_US + 59.0, lambda: runtime.instances["entry-u1"].fail())
        inject_workload(sim, runtime)
        sim.run(until=HORIZON_US)

        record = director.records[0]
        assert record.status == "aborted"
        rollback = record.steps[-1]
        assert rollback.name == "rollback:entry-u1->entry-0"
        assert not rollback.ok and rollback.note == "instance died"
        assert runtime.vertex_instances["entry"] == before + ["entry-u1"]
        assert sim.crashed == []


class TestTopologyAborts:
    def test_remove_entry_vertex_refused(self):
        sim = Simulator()
        runtime = build_runtime(sim, 5)
        director = MaintenanceDirector(runtime)
        sim.process(director.remove_vertex("entry"))
        sim.run(until=1_000.0)
        record = director.records[0]
        assert record.status == "aborted"
        assert "entry" in runtime.chain.vertices
        assert "entry" not in runtime._paused_vertices

    def test_insert_on_unknown_edge_refused(self):
        sim = Simulator()
        runtime = build_runtime(sim, 5)
        director = MaintenanceDirector(runtime)
        sim.process(director.insert_vertex("patch", ScrubNF, "scrub", "nowhere"))
        sim.run(until=1_000.0)
        record = director.records[0]
        assert record.status == "aborted"
        assert "patch" not in runtime.chain.vertices


class TestHotReload:
    def test_unknown_key_aborts_without_side_effects(self):
        sim = Simulator()
        runtime = build_runtime(sim, 6)
        director = MaintenanceDirector(runtime)
        before = runtime.params.proc_time_us
        sim.process(
            director.hot_reload({"proc_time_us": 9.0, "n_workers": 4})
        )
        sim.run(until=1_000.0)
        record = director.records[0]
        assert record.status == "aborted"
        assert "n_workers" in record.note
        assert runtime.params.proc_time_us == before

    def test_applies_to_params_and_live_objects(self):
        sim = Simulator()
        runtime = build_runtime(sim, 6)
        director = MaintenanceDirector(runtime)
        sim.process(
            director.hot_reload(
                {"proc_time_us": 3.5, "retransmit_timeout_us": 123.0}
            )
        )
        sim.run(until=1_000.0)
        assert director.records[0].status == "completed"
        assert runtime.params.proc_time_us == 3.5
        for instance in runtime.instances.values():
            assert instance.proc_time_us == 3.5
            assert instance.client.retransmit_timeout_us == 123.0


# ----------------------------------------------------------------------
# first packets at the cutover
# ----------------------------------------------------------------------

WARM_PACKETS, WARM_FLOWS, NEW_FLOWS = 40, 8, 6


class ReadFirstNF(NetworkFunction):
    """Entry NF that reads a shared, store-resident counter before it
    touches per-flow state: every packet sits in its worker's hands for one
    blocking store round trip — in no queue, on no ring, and (a flow's
    first packet) owning nothing yet."""

    name = "entry"

    def state_specs(self):
        return {
            "hits": StateObjectSpec(
                "hits", Scope.PER_FLOW, AccessPattern.READ_WRITE_OFTEN, initial_value=0
            ),
            "total": StateObjectSpec(
                "total", Scope.CROSS_FLOW, AccessPattern.WRITE_MOSTLY, (), initial_value=0
            ),
        }

    def process(self, packet, state):
        yield from state.read("total", None)
        yield from state.update("hits", packet.five_tuple.canonical().key(), "incr", 1)
        yield from state.update("total", None, "incr", 1)
        return [Output(packet)]


def _read_first_runtime(sim, seed):
    chain = LogicalChain("ops-read-first")
    chain.add_vertex("entry", ReadFirstNF, parallelism=2, entry=True)
    chain.add_vertex("exit", SinkCounterNF)
    chain.add_edge("entry", "exit")
    return ChainRuntime(sim, chain, params=RuntimeParams(seed=seed), n_store_instances=2)


def _packet(flow, seq):
    return Packet(
        FiveTuple("10.0.0.1", "52.0.0.1", 1000 + flow, 80, 6), payload=f"f{flow}-{seq}"
    )


def _upgrade_under_first_packets(build, new_flows_at):
    """``rolling_upgrade("entry")`` at OP_AT_US over a warm chain, with
    NEW_FLOWS never-seen flows injected at one instant; returns the
    instants an instance was retired and what went wrong (nothing)."""
    sim = Simulator()
    runtime = build(sim, 1)
    director = MaintenanceDirector(runtime)
    retired = []
    replace = runtime.replace_instance
    runtime.replace_instance = lambda old, new: (
        retired.append(sim.now), replace(old, new)
    )[1]

    def warm():
        for index in range(WARM_PACKETS):
            runtime.inject(_packet(index % WARM_FLOWS, index // WARM_FLOWS))
            yield sim.timeout(3.0)

    def plan():
        yield sim.timeout(OP_AT_US)
        yield from director.rolling_upgrade("entry")

    sim.process(warm())
    sim.process(plan())
    expected = WARM_PACKETS
    if new_flows_at is not None:
        expected += NEW_FLOWS
        # no two on one worker of one instance: each first packet is alone
        # in its worker's hands, with nothing queued behind it to give it away
        old = runtime.instances["entry-0"]
        splitter = runtime.splitter("entry")
        taken = set()
        for flow in range(WARM_FLOWS, 64):
            packet = _packet(flow, 0)
            home = splitter.hash_home(splitter.key_of(packet))
            slot = (home, old._shard_memo[packet.five_tuple])
            if slot not in taken and len(taken) < NEW_FLOWS:
                taken.add(slot)
                sim.schedule(new_flows_at, runtime.inject, packet)
        assert len(taken) == NEW_FLOWS
    sim.run(until=20_000.0)

    counts = _egress_counts(runtime)
    problems = []
    if sorted(counts.values()) != [1] * expected:
        problems.append(f"{expected - len(counts)} of {expected} packets lost")
    residue = sum(len(root.log) for root in runtime.roots)
    if residue:
        problems.append(f"{residue} root-log entries left")
    if [r.status for r in director.records] != ["completed"]:
        problems.append(f"operation {director.records[0].status}")
    if sim.crashed:
        problems.append(f"crashed: {sim.crashed}")
    return retired, problems


class TestFirstPacketsAtTheCutover:
    """The window the 60-run ops campaign never opened: its source cycles
    flows that all exist before OP_AT_US. The old instance stays the hash
    home of every new flow until the cutover, so a first packet dispatched
    to it just before is on the hop link, on the wire, or in a worker's
    hands when the gate looks. At the parent of the PR that added
    ``handover.evacuate`` both sweeps lose packets (operation `completed`,
    no drop ledger entry): 30 of 72 instants and 75 of 80."""

    @staticmethod
    def _sweep(build, lead_us, step_us):
        cutovers, problems = _upgrade_under_first_packets(build, None)
        assert len(cutovers) == 2 and not problems, problems
        failed = {}
        for cutover in cutovers:
            for index in range(int(lead_us / step_us)):
                at = cutover - lead_us + index * step_us
                _retired, problems = _upgrade_under_first_packets(build, at)
                if problems:
                    failed[round(at, 3)] = problems
        return failed

    def test_on_the_link_and_the_wire(self):
        # the ops campaign's own chain; 9 us covers the hop link, the NIC
        # serialisation and the service time before each cutover
        assert self._sweep(build_runtime, lead_us=9.0, step_us=0.25) == {}

    def test_in_a_worker_parked_on_a_store_read(self):
        # the queue_depth blind spot: the cold read holds the packet for a
        # store round trip (28 us) with every queue and ring empty
        assert self._sweep(_read_first_runtime, lead_us=40.0, step_us=1.0) == {}

    def test_retiring_an_instance_with_packets_in_flight_raises(self):
        sim = Simulator()
        runtime = build_runtime(sim, 1)
        runtime.inject(_packet(0, 0))
        sim.run(until=4.0)  # past the root, on the hop link to an entry instance
        (busy,) = [i for i in runtime.instances_of("entry") if i.inbound]
        with pytest.raises(RuntimeError, match="1 packet copies in flight"):
            runtime.retire_instance(busy.instance_id)
        assert busy.instance_id in runtime.instances  # refused, not half-done
        sim.run(until=1_000.0)
        assert busy.inbound == 0 and len(runtime.egress) == 1
        runtime.retire_instance(busy.instance_id)


OLD_FLOWS = 6
#: (quarter-microseconds from 8 us before the evacuation starts, flow) —
#: flows below OLD_FLOWS are warm and owned, the rest have never been seen.
#: The first move lands ~30 us in; what is dispatched to the victim in the
#: few microseconds before that is what a gate can miss.
ARRIVALS = st.lists(
    st.tuples(st.integers(0, 240), st.integers(0, OLD_FLOWS + 3)), max_size=10
)


@settings(max_examples=200, deadline=None)
@given(arrivals=ARRIVALS, scale_in=st.booleans())
def test_evacuate_under_any_arrival_schedule(arrivals, scale_in):
    """Whatever arrives around an ``evacuate`` — packets of flows the victim
    owns, first packets of flows it is still the hash home of — every
    packet leaves exactly once and in per-flow order, and the victim has
    nothing in flight in the instant it is retired."""
    sim = Simulator()
    runtime = build_runtime(sim, 1)
    splitter = runtime.splitter("entry")
    sent = Counter()
    outcome, inbound_at_retirement = [], []

    def spy(leave):  # either exit: retire (scale-in) or replace (upgrade)
        return lambda iid, *successor: (
            inbound_at_retirement.append(runtime.instances[iid].inbound),
            leave(iid, *successor),
        )[1]

    runtime.retire_instance = spy(runtime.retire_instance)
    runtime.replace_instance = spy(runtime.replace_instance)

    def inject(flow):
        sent[flow] += 1
        runtime.inject(_packet(flow, sent[flow]))

    def scenario():
        for index in range(2 * OLD_FLOWS):
            inject(index % OLD_FLOWS)
            yield sim.timeout(3.0)
        yield sim.timeout(60.0)  # warm traffic through, every flow owned
        spare = runtime.add_instance("entry", "x").instance_id
        if scale_in:
            # scale-in: the victim sits outside hash_members, holding flows
            # that were moved onto it
            victim = runtime.instances[spare]
            holders = {}
            for instance in runtime.instances_of("entry"):
                holders.update(owned_scope_keys(runtime, "entry", instance))
            yield from move_flows(runtime, "entry", list(holders), spare, current_of=holders)
            destination_of, replace_with = splitter.hash_home, None
        else:
            # upgrade: the victim holds a hash slot the spare takes over
            victim = runtime.instances["entry-0"]
            destination_of, replace_with = (lambda _key: spare), spare
        for quarter_us, flow in arrivals:
            sim.schedule(quarter_us / 4, inject, flow)
        yield sim.timeout(8.0)
        outcome.append(
            (
                yield from evacuate(
                    runtime, victim, destination_of, sim.now + 5_000.0, replace_with
                )
            )
        )
        assert victim.instance_id not in runtime.instances

    sim.process(scenario())
    sim.run(until=10_000.0)

    assert sim.crashed == []
    assert len(outcome) == 1 and outcome[0][1] is None, outcome
    assert inbound_at_retirement == [0]
    egress = snapshot_run(runtime).egress
    assert len(egress) == 2 * OLD_FLOWS + len(arrivals)
    assert check_exactly_once(egress) == [] and check_flow_ordering(egress) == []
    assert all(not root.log for root in runtime.roots)
    assert check_operation_converged(runtime) == []


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------


class TestPauseGate:
    def test_entry_vertex_not_pausable(self):
        sim = Simulator()
        runtime = build_runtime(sim, 7)
        with pytest.raises(ValueError):
            runtime.pause_vertex_input("entry")
        with pytest.raises(KeyError):
            runtime.pause_vertex_input("nope")

    def test_paused_vertex_leaves_fastpath(self):
        sim = Simulator()
        runtime = build_runtime(sim, 7)
        runtime.pause_vertex_input("scrub")
        from repro.traffic.packet import FiveTuple, Packet

        packet = Packet(FiveTuple("10.0.0.1", "52.0.0.1", 1000, 80, 6))
        assert runtime.fast_target("scrub", packet) is None
        runtime.resume_vertex_input("scrub")

    def test_pause_window_loses_nothing(self):
        sim = Simulator()
        runtime = build_runtime(sim, 7)

        def toggle():
            yield sim.timeout(OP_AT_US)
            runtime.pause_vertex_input("scrub")
            yield sim.timeout(200.0)
            runtime.resume_vertex_input("scrub")

        sim.process(toggle())
        inject_workload(sim, runtime)
        sim.run(until=HORIZON_US)
        assert len(runtime.egress) == N_PACKETS
        assert not runtime._paused_vertices


class TestGoodputMonitor:
    def test_subwindow_operation_still_sampled(self):
        # an operation shorter than one window (armed and disarmed between
        # two window boundaries) must still record the window it touched
        sim = Simulator()
        runtime = build_runtime(sim, 8)
        monitor = GoodputMonitor(runtime, window_us=100.0)

        def blip():
            yield sim.timeout(130.0)
            monitor.arm()
            yield sim.timeout(2.0)
            monitor.disarm()

        sim.process(blip())
        sim.run(until=500.0)
        starts = [start for start, _count in monitor.windows]
        assert starts == [100.0]

    def test_unarmed_windows_not_recorded(self):
        sim = Simulator()
        runtime = build_runtime(sim, 8)
        monitor = GoodputMonitor(runtime, window_us=100.0)
        sim.run(until=500.0)
        assert monitor.windows == []


class TestOperationsCheckers:
    def test_clean_runtime_converged(self):
        sim = Simulator()
        runtime = build_runtime(sim, 9)
        assert check_operation_converged(runtime) == []

    def test_paused_vertex_flagged(self):
        sim = Simulator()
        runtime = build_runtime(sim, 9)
        runtime.pause_vertex_input("scrub")
        violations = check_operation_converged(runtime)
        assert any("paused" in v.detail for v in violations)

    def test_lame_duck_store_flagged(self):
        sim = Simulator()
        runtime = build_runtime(sim, 9)
        runtime.stores[0].enter_lame_duck()
        violations = check_operation_converged(runtime)
        assert any("lame-duck" in v.detail for v in violations)

    def test_only_untriggered_moves_count_as_stuck(self):
        sim = Simulator()
        runtime = build_runtime(sim, 9)
        key = FiveTuple("10.0.0.1", "10.9.0.1", 1000, 80, 6).key()
        away = next(
            i for i in runtime.splitter("entry").instances
            if i != runtime.splitter("entry").current_instance_for(key)
        )
        move = sim.process(move_flows(runtime, "entry", [key], away))
        sim.run(until=1.0)  # the marker is still on its way to the old side
        assert stuck_moves(runtime) == {"entry": 1}
        assert [v.detail for v in check_operation_converged(runtime)] == [
            "handovers still in flight at end of run: {'entry': 1}"
        ]
        sim.run(until=1_000.0)
        assert move.triggered and move.value.n_markers == 1
        assert stuck_moves(runtime) == {}
        assert check_operation_converged(runtime) == []

    def test_no_downtime_checker(self):
        assert check_no_downtime([], label="x")  # no samples = a violation
        assert check_no_downtime([(0.0, 0)], floor=1, label="x")
        assert check_no_downtime([(0.0, 3), (50.0, 1)], floor=1, label="x") == []


class TestNewestCrashSelector:
    def test_newest_picks_latest_spawned_instance(self):
        sim = Simulator()
        runtime = build_runtime(sim, 10)
        fresh = runtime.add_instance("entry", "zz")
        director = ChaosDirector(
            sim, network=runtime.network, seed=0, timeline=RecoveryTimeline()
        )
        action = CrashNF(at_us=0.0, vertex="entry", newest=True)
        assert director._pick_nf(action, runtime) is fresh

    def test_default_choice_is_seeded_random(self):
        sim = Simulator()
        runtime = build_runtime(sim, 10)
        picks = set()
        for seed in range(8):
            director = ChaosDirector(sim, network=runtime.network, seed=seed)
            action = CrashNF(at_us=0.0, vertex="entry")
            picks.add(director._pick_nf(action, runtime).instance_id)
        assert len(picks) == 2  # both entry instances reachable
