"""Integration tests for straggler mitigation (R5, §5.3).

The invariant under test: cloning + replay + replication never changes
what the chain computes — no duplicate state updates, no duplicate
outputs downstream, regardless of which instance is retained.
"""


import pytest

from repro.core.chain_runtime import ChainRuntime, RuntimeParams
from repro.core.cloning import CloneController
from repro.core.dag import LogicalChain
from repro.core.nf_api import NetworkFunction, Output
from repro.ops.director import MaintenanceDirector
from repro.simnet.engine import Simulator
from repro.store.keys import StateKey
from repro.store.spec import AccessPattern, Scope, StateObjectSpec
from tests.conftest import make_packet


class SlowCounterNF(NetworkFunction):
    """Counts per-flow and in a shared counter; used as the straggler."""

    name = "slow"

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
        flow = packet.five_tuple.canonical().key()
        yield from state.update("hits", flow, "incr", 1)
        yield from state.update("total", None, "incr", 1)
        return [Output(packet)]


class SinkCounterNF(NetworkFunction):
    name = "sink"

    def state_specs(self):
        return {
            "seen": StateObjectSpec(
                "seen", Scope.CROSS_FLOW, AccessPattern.WRITE_MOSTLY, (), initial_value=0
            ),
        }

    def process(self, packet, state):
        yield from state.update("seen", None, "incr", 1)
        return [Output(packet)]


def build_runtime(sim, extra_delay=None, suppress=True, seed=0):
    chain = LogicalChain("cloning")
    chain.add_vertex("slow", SlowCounterNF, entry=True)
    chain.add_vertex("sink", SinkCounterNF)
    chain.add_edge("slow", "sink")
    params = RuntimeParams(suppress_duplicates=suppress, store_dedup=suppress, seed=seed)
    runtime = ChainRuntime(sim, chain, params=params)
    if extra_delay is not None:
        runtime.instances["slow-0"].extra_delay = extra_delay
    return runtime


def peek(runtime, vertex, obj):
    key = StateKey(vertex, obj).storage_key()
    return runtime.store.instance_for_key(key).peek(key)


N_PACKETS = 80


def run_with_clone(sim, runtime, keep):
    controller = CloneController(runtime)
    sessions = {}

    def source():
        for index in range(N_PACKETS):
            runtime.inject(make_packet(sport=1000 + (index % 7)))
            yield sim.timeout(3.0)
            if index == 25:
                def mitigate():
                    session = yield from controller.mitigate("slow-0")
                    sessions["s"] = session

                sim.process(mitigate())

    sim.process(source())
    sim.run(until=2_000_000)

    def resolve():
        yield from controller.retain(sessions["s"], keep)

    sim.run_process(resolve())
    sim.run(until=10_000_000)
    return sessions["s"]


class TestCloning:
    def test_clone_suppresses_duplicate_updates(self, sim):
        runtime = build_runtime(sim, extra_delay=lambda: 6.0)
        session = run_with_clone(sim, runtime, keep="clone")
        # shared counter: each packet counted exactly once despite the
        # straggler AND the clone both processing replicated traffic
        assert peek(runtime, "slow", "total") == N_PACKETS
        assert peek(runtime, "sink", "seen") == N_PACKETS
        assert session.resolved == session.clone_id
        assert runtime.stores[0].stats.ops_emulated > 0  # duplicates were caught

    def test_downstream_sees_each_packet_once(self, sim):
        runtime = build_runtime(sim, extra_delay=lambda: 6.0)
        run_with_clone(sim, runtime, keep="clone")
        sink = runtime.instances_of("sink")[0]
        assert sink.stats.processed == N_PACKETS
        assert sink.stats.duplicates_seen == 0
        assert runtime.duplicates_suppressed > 0

    def test_retaining_straggler_also_consistent(self, sim):
        runtime = build_runtime(sim, extra_delay=lambda: 6.0)
        session = run_with_clone(sim, runtime, keep="straggler")
        assert peek(runtime, "slow", "total") == N_PACKETS
        assert peek(runtime, "sink", "seen") == N_PACKETS
        assert session.resolved == session.straggler_id
        assert session.clone_id not in runtime.instances

    def test_clone_takes_over_routing_slot(self, sim):
        runtime = build_runtime(sim, extra_delay=lambda: 6.0)
        session = run_with_clone(sim, runtime, keep="clone")
        splitter = runtime.splitter("slow")
        assert session.clone_id in splitter.hash_members
        assert session.straggler_id not in splitter.hash_members
        assert session.straggler_id not in runtime.instances

    def test_per_flow_state_consistent_after_clone(self, sim):
        runtime = build_runtime(sim, extra_delay=lambda: 6.0)
        run_with_clone(sim, runtime, keep="clone")
        store = runtime.store.instance_for_key(StateKey("slow", "hits", ("x",)).storage_key())
        per_flow_total = sum(
            store.peek(key) for key in store.keys() if "hits" in key
        )
        assert per_flow_total == N_PACKETS

    def test_retain_clone_mid_traffic_loses_nothing(self, sim):
        # regression: the switchover to the clone must be atomic with the
        # straggler's kill — a reroute delayed behind the ownership RPC
        # would drop the packets arriving in that window
        runtime = build_runtime(sim, extra_delay=lambda: 6.0)
        controller = CloneController(runtime)
        sessions = {}

        def source():
            for index in range(N_PACKETS):
                runtime.inject(make_packet(sport=1000 + (index % 7)))
                yield sim.timeout(3.0)
                if index == 20:
                    def mitigate():
                        sessions["s"] = yield from controller.mitigate("slow-0")
                    sim.process(mitigate())
                if index == 55:  # resolve while traffic is still flowing
                    def resolve():
                        yield from controller.retain(sessions["s"], "clone")
                    sim.process(resolve())

        sim.process(source())
        sim.run(until=10_000_000)
        assert peek(runtime, "slow", "total") == N_PACKETS
        assert peek(runtime, "sink", "seen") == N_PACKETS
        assert runtime.instances_of("sink")[0].stats.processed == N_PACKETS

    def test_without_suppression_duplicates_leak(self, sim):
        # Table 5's point: disable CHC's suppression and duplicates reach
        # the downstream NF.
        runtime = build_runtime(sim, extra_delay=lambda: 6.0, suppress=False)
        run_with_clone(sim, runtime, keep="clone")
        sink = runtime.instances_of("sink")[0]
        assert sink.stats.duplicates_seen > 0
        assert peek(runtime, "sink", "seen") > N_PACKETS


# ----------------------------------------------------------------------
# mitigation over a lossy fabric, and the upgrade that follows one
# ----------------------------------------------------------------------

LOSSY_PACKETS, LOSSY_FLOWS = 200, 6


def mitigate_over_lossy_links(seed, keep, loss=0.05, then=None):
    """200 packets over 6 flows with ``loss`` on every control-plane
    message (the chaos campaign's ``lossy-link`` rate): mitigate at packet
    30, retain 150 us after it returns, then run ``then(runtime)`` if given.
    Returns the runtime and whether the episode ran to its end."""
    sim = Simulator()
    runtime = build_runtime(sim, extra_delay=lambda: 6.0, seed=seed)
    if loss:
        runtime.network.degrade(loss=loss)
    controller = CloneController(runtime)
    finished = []

    def episode():
        session = yield from controller.mitigate("slow-0")
        yield sim.timeout(150.0)
        yield from controller.retain(session, keep)
        if then is not None:
            yield from then(runtime)
        finished.append(sim.now)

    def source():
        for index in range(LOSSY_PACKETS):
            runtime.inject(make_packet(sport=1000 + index % LOSSY_FLOWS))
            yield sim.timeout(3.0)
            if index == 30:
                sim.process(episode())

    sim.process(source())
    sim.run(until=5_000_000)
    assert sim.crashed == []
    return runtime, bool(finished)


def per_flow_hits(runtime):
    store = runtime.stores[0]
    return sorted(store.peek(key) for key in store.keys() if "hits" in key)


EXPECTED_HITS = sorted(
    LOSSY_PACKETS // LOSSY_FLOWS + (flow < LOSSY_PACKETS % LOSSY_FLOWS)
    for flow in range(LOSSY_FLOWS)
)


class TestMitigationOverLossyLinks:
    """``mitigate`` / ``retain`` send their metadata updates through the
    recovery protocols' retransmitting call. With bare ``call_event``s 4 of
    20 seeds per arm never finished (one lost request or reply parks the
    episode for good — and with the clone kept, the store went on naming
    the dead straggler owner of its keys)."""

    @pytest.mark.parametrize("keep", ["clone", "straggler"])
    def test_every_seed_finishes_with_its_state_whole(self, keep):
        for seed in range(20):
            runtime, finished = mitigate_over_lossy_links(seed, keep)
            assert finished, f"seed {seed}: the episode never finished"
            owners = set(filter(None, runtime.stores[0]._owners.values()))
            assert all(runtime.instances[o].alive for o in owners), (seed, owners)
            assert per_flow_hits(runtime) == EXPECTED_HITS, seed

    @pytest.mark.parametrize("seed", [6, 12, 15])
    def test_a_clone_that_writes_first_claims_for_its_original(self, seed):
        # The original's first flush of a new flow is lost and waits out a
        # 500 us retransmission; the clone's copy lands first. Were the
        # clone named owner, deregistering it would get every later update
        # of the flow rejected (33-36 rejections, `hits` stuck at 6-15).
        runtime, finished = mitigate_over_lossy_links(seed, "straggler")
        assert finished
        assert set(filter(None, runtime.stores[0]._owners.values())) == {"slow-0"}
        assert runtime.stores[0].stats.rejected == 0
        assert per_flow_hits(runtime) == EXPECTED_HITS


class TestUpgradeAfterMitigation:
    """What ``retain`` leaves behind is the next operation's input: with the
    loser still listed, a rolling upgrade picked the corpse first and
    wedged the chain (121 / 141 of 200 packets egressed, no fault injected)."""

    @pytest.mark.parametrize("keep", ["clone", "straggler"])
    def test_rolling_upgrade_after_a_fault_free_mitigation(self, keep):
        records = []

        def upgrade(runtime):
            records.append(
                (yield from MaintenanceDirector(runtime).rolling_upgrade("slow"))
            )

        runtime, finished = mitigate_over_lossy_links(1, keep, loss=0.0, then=upgrade)
        assert finished and [r.status for r in records] == ["completed"]
        assert [len(r.steps) for r in records] == [1]
        assert len(runtime.egress) == LOSSY_PACKETS
        assert peek(runtime, "slow", "total") == LOSSY_PACKETS
        assert per_flow_hits(runtime) == EXPECTED_HITS
        assert runtime.splitter("slow").instances == ["slow-u1"]
