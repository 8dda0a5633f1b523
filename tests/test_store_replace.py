"""Store-node replacement under traffic (StoreCluster.replace_instance).

The planned replacement protocol (DESIGN.md §12): snapshot + routing swap
in one sim instant, the old node goes lame-duck (commits but never ACKs),
and the catch-up gate holds teardown until every post-snapshot identity
the muted node committed has reappeared on the replacement via client
retransmission. Covers the routing-layer unit behavior, the protocol
under live traffic, and the old node crashing mid-replacement; the
lame-duck battery itself lives in tests/test_store_rehome.py.
"""

import pytest

from repro.chaos.campaign import HORIZON_US, ideal_reference, run_scenario
from repro.chaos.director import ChaosDirector
from repro.chaos.invariants import (
    check_egress_complete,
    check_exactly_once,
    check_flow_ordering,
    check_loss_free_state,
    chain_state,
    egress_records,
)
from repro.ops.director import MaintenanceDirector
from repro.ops.campaign import (
    OP_AT_US,
    SCENARIOS,
    build_runtime,
    inject_workload,
)
from repro.simnet.engine import Simulator
from repro.simnet.monitor import RecoveryTimeline
from repro.simnet.network import Network
from repro.simnet.rpc import RpcEndpoint
from repro.store.datastore import DatastoreInstance
from repro.store.operations import OperationRegistry


# ----------------------------------------------------------------------
# routing-layer units
# ----------------------------------------------------------------------


def _mk_store(sim, network, name):
    return DatastoreInstance(sim, network, name, registry=OperationRegistry())


class TestClusterReplaceInstance:
    def test_swaps_in_place_and_repoints_assignments(self):
        sim = Simulator()
        runtime = build_runtime(sim, 0)
        cluster = runtime.store
        order_before = list(cluster._order)
        slot = order_before.index("store0")
        assigned_before = [
            vertex
            for vertex, store in cluster._vertex_assignment.items()
            if store == "store0"
        ]
        replacement = _mk_store(sim, runtime.network, "store0m1")
        cluster.replace_instance("store0", replacement)

        assert cluster._order[slot] == "store0m1"
        assert len(cluster._order) == len(order_before)
        assert cluster.instance_named("store0m1") is replacement
        with pytest.raises(KeyError):
            cluster.instance_named("store0")
        for vertex in assigned_before:
            assert cluster._vertex_assignment[vertex] == "store0m1"

    def test_unknown_instance_rejected(self):
        sim = Simulator()
        runtime = build_runtime(sim, 0)
        with pytest.raises(KeyError):
            runtime.store.replace_instance(
                "ghost", _mk_store(sim, runtime.network, "x")
            )

    def test_unassign_vertex(self):
        sim = Simulator()
        runtime = build_runtime(sim, 0)
        cluster = runtime.store
        assert "scrub" in cluster._vertex_assignment
        cluster.unassign_vertex("scrub")
        assert "scrub" not in cluster._vertex_assignment
        cluster.unassign_vertex("scrub")  # idempotent


class TestReplaySilence:
    def test_muted_endpoint_sends_nothing(self):
        sim = Simulator()
        network = Network(sim)
        a = RpcEndpoint(sim, network, "a")
        b = RpcEndpoint(sim, network, "b")
        a.mute_output = True
        a.send("b", "one-way")
        sim.run(until=100.0)
        assert len(b.messages._items) == 0


# ----------------------------------------------------------------------
# the protocol under live traffic
# ----------------------------------------------------------------------

class TestReplaceUnderTraffic:
    def test_zero_loss_and_clean_teardown(self):
        spec = SCENARIOS["store-replace"]
        caught = {}
        outcome = run_scenario(
            spec,
            seed=5,
            collect_runtime=lambda rt: caught.setdefault("rt", rt),
        )
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        runtime = caught["rt"]
        names = [store.name for store in runtime.stores]
        assert "store0" not in names  # replaced ...
        assert any(name.startswith("store0m") for name in names)  # ... in place
        record = outcome.operations[0]
        assert record["status"] == "completed"
        steps = [step["name"] for step in record["steps"]]
        assert steps[0].startswith("swap:") and "catchup" in steps

    def test_pending_flushes_reconciled_via_retransmission(self):
        # the catch-up note is the observable for the reconciliation gate:
        # identities the muted node committed post-snapshot must have been
        # watched (not copied) and re-landed on the replacement
        spec = SCENARIOS["store-replace"]
        outcome = run_scenario(spec, seed=6)
        assert outcome.ok, [v.as_dict() for v in outcome.violations]
        catchup = next(
            step
            for step in outcome.operations[0]["steps"]
            if step["name"] == "catchup"
        )
        assert "reconciled via retransmission" in catchup["note"]


class TestStoreCrashMidReplacement:
    def test_old_node_crash_during_catchup_loses_nothing(self):
        spec = SCENARIOS["store-replace"]
        reference = ideal_reference(spec, 2)
        sim = Simulator()
        runtime = build_runtime(sim, 2)
        timeline = RecoveryTimeline()
        chaos = ChaosDirector(
            sim, network=runtime.network, seed=2, timeline=timeline
        )
        runtime.attach_supervisor(chaos, timeline=timeline)
        director = MaintenanceDirector(runtime, monitor_window_us=50.0)
        old = runtime.store.instance_named("store0")

        def plan():
            yield sim.timeout(OP_AT_US)
            yield from director.replace_store("store0")

        sim.process(plan(), name="replace-store0")
        # the old node dies while the catch-up gate is still watching it:
        # everything it committed-but-never-ACK'd must be retransmitted to
        # the replacement, so the crash costs nothing
        sim.schedule(OP_AT_US + 15.0, old.fail)
        inject_workload(sim, runtime)
        sim.run(until=HORIZON_US)

        assert not old.alive
        record = director.records[0]
        assert record.status == "completed"
        catchup = next(s for s in record.steps if s.name == "catchup")
        assert "crashed mid-catch-up" in catchup.note

        egress = egress_records(runtime)
        violations = (
            check_exactly_once(egress)
            + check_flow_ordering(egress)
            + check_loss_free_state(chain_state(runtime), reference.state)
            + check_egress_complete(egress, reference.egress)
        )
        assert violations == [], [v.as_dict() for v in violations]

    def test_supervisor_ignores_retired_store(self):
        # the supervisor must not resurrect the node the director already
        # replaced: its retired-guard records the death and does nothing
        spec = SCENARIOS["store-replace"]
        sim = Simulator()
        runtime = build_runtime(sim, 3)
        timeline = RecoveryTimeline()
        chaos = ChaosDirector(
            sim, network=runtime.network, seed=3, timeline=timeline
        )
        supervisor = runtime.attach_supervisor(chaos, timeline=timeline)
        director = MaintenanceDirector(runtime, monitor_window_us=50.0)
        old = runtime.store.instance_named("store0")

        def plan():
            yield sim.timeout(OP_AT_US)
            yield from director.replace_store("store0")

        sim.process(plan(), name="replace-store0")
        # notify through the chaos injector (the supervisor's input) after
        # the swap has already retired the old node from runtime.stores
        sim.schedule(OP_AT_US + 20.0, chaos.fail_now, old)
        inject_workload(sim, runtime)
        sim.run(until=HORIZON_US)

        assert director.records[0].status == "completed"
        names = [store.name for store in runtime.stores]
        assert "store0" not in names
        retired = [
            event
            for event in timeline.as_dicts()
            if event["kind"] == "retired" and event["component"] == "store0"
        ]
        assert retired, timeline.as_dicts()
