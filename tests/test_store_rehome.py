"""The store re-homing primitive (repro.store.rehome, DESIGN.md §8).

One battery for the one lame-duck mechanism, parametrised over the two
shapes its callers use — ``vertices=None`` (whole-node replacement) and
``vertices=["v"]`` (one vertex onto a scale-out replica) — then the
regression tests for the three bugs the shared primitive fixed, each
driven through an entry point that also exists at the parent commit, and
the parent-recorded determinism digests for both callers.
"""

import json
import os
from types import SimpleNamespace

import pytest

from repro.analysis.determinism import (
    engine_counters_of,
    observable_digest,
    require_no_crash,
)
from repro.chaos.campaign import disturbed_run, run_scenario
from repro.chaos.director import ChaosDirector
from repro.chaos.overload import SCENARIOS as OVERLOAD_SCENARIOS
from repro.chaos.overload import autoscaled
from repro.core.autoscaler import AutoscaleController
from repro.ops.director import MaintenanceDirector
from repro.ops.campaign import SCENARIOS, build_runtime
from repro.simnet.engine import Simulator
from repro.simnet.rpc import RpcEndpoint
from repro.store.cluster import StoreCluster
from repro.store.datastore import DatastoreInstance
from repro.store.protocol import (
    BulkOwnerMove,
    CallbackMessage,
    CommitSignal,
    OpRequest,
    PruneRequest,
    ReadRequest,
    WatchRequest,
)
from repro.store.rehome import Rehoming

VKEY = "v\x1fcount\x1f"  # vertex "v", shared object "count"
WKEY = "w\x1fcount\x1f"  # a second tenant of the same node

SHAPES = pytest.mark.parametrize(
    "vertices", [None, ["v"]], ids=["whole-node", "one-vertex"]
)


def incr(key, clock=0, **kwargs):
    kwargs.setdefault("instance", "a")
    return OpRequest(key=key, op="incr", args=(1,), clock=clock, **kwargs)


def call(sim, caller, payload, dst="store0"):
    def body():
        value = yield caller.call_event(dst, payload)
        return value

    return sim.run_process(body())


def settle(sim, us=1_000.0):
    sim.run(until=sim.now + us)


@pytest.fixture
def rig(sim, network):
    """One store node with two tenants, a root and a watcher endpoint."""
    store = DatastoreInstance(sim, network, "store0", root_endpoint="root0")
    cluster = StoreCluster([store])
    for vertex in ("v", "w"):
        cluster.assign_vertex(vertex, "store0")
    return SimpleNamespace(
        sim=sim,
        src=store,
        runtime=SimpleNamespace(store=cluster, roots=[]),
        caller=RpcEndpoint(sim, network, "nf-0"),
        root=RpcEndpoint(sim, network, "root0"),
        watcher=RpcEndpoint(sim, network, "nf-w"),
    )


@SHAPES
class TestLameDuckBattery:
    def test_source_still_commits_but_never_acks(self, rig, vertices):
        call(rig.sim, rig.caller, incr(VKEY))
        Rehoming(rig.runtime, rig.src, "dst", vertices)
        ack = rig.caller.call_event("store0", incr(VKEY, blocking=False))
        read = rig.caller.call_event("store0", ReadRequest(key=VKEY))
        settle(rig.sim)
        assert not ack.triggered and not read.triggered  # dropped on the wire...
        assert rig.src.peek(VKEY) == 2  # ...but the op was committed

    def test_no_commit_signal_reaches_the_root(self, rig, vertices):
        call(rig.sim, rig.caller, incr(VKEY, clock=3, vector_tag=1))
        settle(rig.sim)
        assert [m.payload for m in rig.root.messages._items] == [CommitSignal((3,), (1,))]
        Rehoming(rig.runtime, rig.src, "dst", vertices)
        rig.caller.call_event("store0", incr(VKEY, clock=4, vector_tag=1))
        settle(rig.sim)
        assert rig.src.peek(VKEY) == 2
        # signalling from both sides would corrupt the commit-vector parity
        assert len(rig.root.messages._items) == 1
        assert rig.src.stats.commit_signals == 1

    def test_no_watcher_callback_from_the_source(self, rig, vertices):
        call(rig.sim, rig.caller, WatchRequest(key=VKEY, endpoint="nf-w", kind="value"))
        Rehoming(rig.runtime, rig.src, "dst", vertices)
        rig.caller.call_event("store0", incr(VKEY))
        settle(rig.sim)
        assert rig.src.peek(VKEY) == 1  # a phantom write...
        assert len(rig.watcher.messages._items) == 0  # ...no cache sees

    def test_retransmission_re_resolves_and_is_emulated(self, rig, vertices):
        call(rig.sim, rig.caller, incr(VKEY, clock=5))  # committed, ACK "lost"
        move = Rehoming(rig.runtime, rig.src, "dst", vertices)
        assert (VKEY, 5, 0) in move.covered
        route = lambda: rig.runtime.store.endpoint_for_key(VKEY)  # noqa: E731
        result = rig.sim.run_process(
            rig.caller.call(route, incr(VKEY, clock=5), timeout_us=200.0, max_retries=3)
        )
        assert route() == "dst" and result.emulated
        assert move.dst.peek(VKEY) == 1  # not applied a second time

    def test_in_flight_op_lands_on_destination_before_the_gate_opens(
        self, rig, vertices
    ):
        route = lambda: rig.runtime.store.endpoint_for_key(VKEY)  # noqa: E731
        done = rig.sim.process(
            rig.caller.call(route, incr(VKEY, clock=7), timeout_us=200.0, max_retries=3)
        )
        rig.sim.run(until=rig.sim.now + 1.0)  # on the wire towards the source
        move = Rehoming(rig.runtime, rig.src, "dst", vertices)
        assert move.covered == set()
        stuck = rig.sim.run_process(move.drain(poll_us=20.0, budget_us=5_000.0))
        assert stuck == ""
        settle(rig.sim, 100.0)  # the destination's ACK is still on the wire
        # observed on the muted source, never copied: the un-ACK'd client
        # retransmitted it and the destination applied it fresh
        assert move.pending == {(VKEY, 7, 0)}
        assert rig.src.peek(VKEY) == 1 and move.dst.peek(VKEY) == 1
        assert not done.value.emulated

    def test_other_vertices_keep_service_unless_everything_moved(self, rig, vertices):
        Rehoming(rig.runtime, rig.src, "dst", vertices)
        assert rig.src.lame_duck is (vertices is None)
        ack = rig.caller.call_event("store0", incr(WKEY))
        settle(rig.sim)
        assert ack.triggered is (vertices is not None)
        assert rig.src.peek(WKEY) == 1

    def test_finish_discards_the_dead_copy_and_keeps_the_mute(self, rig, vertices):
        call(rig.sim, rig.caller, incr(VKEY, clock=9))
        call(rig.sim, rig.caller, incr(WKEY))
        move = Rehoming(rig.runtime, rig.src, "dst", vertices)
        move.finish()
        assert rig.src.alive is (vertices is not None)
        assert rig.src.keys() == ([] if vertices is None else [WKEY])
        assert rig.src.logged_clocks(VKEY) == []
        assert move.dst.peek(VKEY) == 1 and move.dst.logged_clocks(VKEY) == [9]
        # the mute is the permanent backstop: a straggler's phantom write
        # stays invisible (no ACK) whether the node is gone or only GC'd
        ack = rig.caller.call_event("store0", incr(VKEY, blocking=False))
        settle(rig.sim)
        assert not ack.triggered

    def test_routing_points_at_the_destination(self, rig, vertices):
        move = Rehoming(rig.runtime, rig.src, "dst", vertices)
        cluster = rig.runtime.store
        assert cluster.endpoint_for_key(VKEY) == "dst"
        # the store list (ChainRuntime.stores is a view of it)
        if vertices is None:
            assert cluster.endpoint_for_key(WKEY) == "dst"
            assert cluster.instances == [move.dst]
        else:
            assert cluster.endpoint_for_key(WKEY) == "store0"
            assert cluster.instances == [rig.src, move.dst]


def test_lame_duck_predicate_is_free_until_something_moves(rig, monkeypatch):
    # the per-op path must not parse keys on a node nothing was moved off
    import repro.store.datastore as datastore

    def boom(_key):
        raise AssertionError("vertex_of_key called on the per-op path")

    monkeypatch.setattr(datastore, "vertex_of_key", boom)
    call(rig.sim, rig.caller, incr(VKEY, clock=3, vector_tag=1))
    assert call(rig.sim, rig.caller, ReadRequest(key=VKEY)).value == 1


# ----------------------------------------------------------------------
# regression: the three bugs the two drifted copies carried
# ----------------------------------------------------------------------


def test_replace_store_carries_watchers_and_pruned_clocks():
    # Planned replacement used to build a fresh node with neither: a cached
    # reader never re-registers, so it went stale forever, and a late
    # duplicate of an already-pruned clock was applied a second time.
    sim = Simulator()
    runtime = build_runtime(sim, 0)
    director = MaintenanceDirector(runtime)
    caller = RpcEndpoint(sim, runtime.network, "probe")
    watcher = RpcEndpoint(sim, runtime.network, "probe-w")
    key = "entry\x1fconfig\x1f"
    call(sim, caller, WatchRequest(key=key, endpoint="probe-w", kind="value"))
    call(sim, caller, incr(key, clock=11))
    call(sim, caller, incr(key, clock=12))  # keeps the log non-trivial
    caller.send("store0", PruneRequest((11,)))
    settle(sim, 100.0)
    before = len(watcher.messages._items)  # the old node's own pushes

    record = sim.run_process(director.replace_store("store0"))
    assert record.status == "completed"
    new_name = runtime.store.endpoint_for_key(key)
    assert new_name != "store0"

    # an update by another instance pushes the callback from the replacement
    call(sim, caller, incr(key, clock=13, instance="b"), dst=new_name)
    settle(sim, 100.0)
    pushed = [m.payload for m in list(watcher.messages._items)[before:]]
    assert pushed == [CallbackMessage(key=key, kind="value", value=3)]
    # ...and the late duplicate of the pruned clock is emulated, not re-applied
    late = call(sim, caller, incr(key, clock=11), dst=new_name)
    assert late.emulated
    assert runtime.store.instance_named(new_name).peek(key) == 3


def test_scale_out_gate_waits_for_a_queued_bulk_owner_move():
    # The drain gate used to look only at .entries/.key, so a queued
    # BulkOwnerMove for the migrated vertex did not hold the GC back and
    # re-created _owners entries on the donor afterwards.
    sim = Simulator()
    runtime = build_runtime(sim, 0)
    hot = runtime.store.instance_named("store0")
    assert runtime.store.vertices_assigned_to("store0") == ["entry", "exit"]
    controller = AutoscaleController(runtime)
    hot.stats.overload_rejections = 1  # the node the controller will split
    caller = RpcEndpoint(sim, runtime.network, "probe")
    moved_key = "exit\x1fflow\x1f1"
    # "exit" is the hotter vertex (more unpruned log entries), so it moves
    for clock in (21, 22):
        call(sim, caller, incr("exit\x1fcount\x1f", clock=clock))
    call(sim, caller, incr(moved_key, clock=23, instance="old", claim_owner=True))
    # park the bulk move behind a slow request on the same store thread
    hot.op_service_us = 300.0
    thread = hot._thread_for("new")
    blocker = next(
        k for k in (f"entry\x1fpad{i}\x1f" for i in range(64))
        if hot._thread_for(k) is thread
    )
    caller.call_event("store0", incr(blocker))
    settle(sim, 50.0)  # the blocker is in service for the next 300 us
    hot.op_service_us = 0.196
    caller.call_event("store0", BulkOwnerMove((moved_key,), "old", "new"))
    settle(sim, 50.0)
    assert len(thread) == 1  # the bulk move, queued behind the blocker

    sim.run_process(controller._store_scale_out())
    settle(sim, 1_000.0)
    action = controller.actions[-1]
    assert action.kind == "store_scale_out" and action.vertex == "exit"
    assert len(thread) == 0  # the gate outlasted the queued move...
    assert hot.owner_of(moved_key) is None  # ...so the GC was final


def test_crash_recovery_keeps_store_configuration():
    # The rebuild used to clone five fields: admission control silently
    # switched off and dedup suppression silently switched back on.
    sim = Simulator()
    runtime = build_runtime(
        sim, 0, store_dedup=False, store_inflight_limit=48,
        store_overload_retry_us=75.0,
    )
    chaos = ChaosDirector(sim, network=runtime.network, seed=0)
    supervisor = runtime.attach_supervisor(chaos)
    failed = runtime.store.instance_named("store0")
    chaos.fail_now(failed)
    sim.run(until=5_000.0)
    assert [r.ok for r in supervisor.records] == [True]
    rebuilt = runtime.stores[0]
    assert rebuilt.alive and rebuilt.name != "store0"
    assert rebuilt.inflight_limit == 48
    assert rebuilt.overload_retry_after_us == 75.0
    assert rebuilt.dedup_enabled is False
    assert rebuilt.registry is not failed.registry  # its own copy, as before
    for root in runtime.roots:
        assert root.store_endpoint == rebuilt.name
        assert "store0" not in root.store_endpoints_for_prune


# ----------------------------------------------------------------------
# behaviour preserved: digests recorded at the parent commit, in two halves
# (see tests/test_fastpath.py): what the run did, and what the engine spent
# ----------------------------------------------------------------------

with open(
    os.path.join(os.path.dirname(__file__), "fixtures", "rehome_digests.json")
) as _fh:
    PARENT_DIGESTS = json.load(_fh)


def _halves(runtime):
    require_no_crash(runtime)
    return {
        "observable": observable_digest(runtime),
        "engine": engine_counters_of(runtime),
    }


@pytest.mark.parametrize("seed", [0, 1])
def test_store_replace_digest_matches_parent(seed):
    captured = []
    run_scenario(
        SCENARIOS["store-replace"], seed,
        collect_runtime=lambda rt: captured.append(_halves(rt)),
    )
    assert captured[0] == PARENT_DIGESTS["ops/store-replace"][str(seed)]


@pytest.mark.parametrize("seed", [0, 1])
def test_store_hot_scale_out_digest_matches_parent(seed):
    runtime = disturbed_run(autoscaled(OVERLOAD_SCENARIOS["store-hot"]), seed).runtime
    assert _halves(runtime) == PARENT_DIGESTS["overload/store-hot/auto=true"][str(seed)]
