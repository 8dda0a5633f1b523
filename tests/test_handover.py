"""Integration tests for elastic scaling state handover (R2, Figure 4).

The requirements under test are the paper's: **loss-freeness** (the state
update of every packet is reflected, even for packets in transit to the
old instance during the move) and **order preservation** (updates happen
in arrival order at the upstream splitter).
"""

import json
import os

import pytest

from repro.chaos.campaign import disturbed_run, run_scenario
from repro.chaos.overload import SCENARIOS as OVERLOAD_SCENARIOS
from repro.chaos.overload import autoscaled
from repro.core import handover
from repro.core.chain_runtime import ChainRuntime
from repro.core.dag import LogicalChain
from repro.core.handover import move_flows
from repro.core.nf_api import NetworkFunction, Output
from repro.core.splitter import FIVE_TUPLE
from repro.ops.campaign import SCENARIOS as OPS_SCENARIOS
from repro.simnet.engine import Simulator
from repro.store.keys import StateKey
from repro.store.spec import AccessPattern, Scope, StateObjectSpec
from repro.traffic.packet import FiveTuple
from tests.conftest import make_packet
from tests.test_store_rehome import _halves


class FlowCounterNF(NetworkFunction):
    """Per-flow packet counter; also records processing order."""

    name = "fc"
    observed = None  # class-level sink shared by all instances of a test

    def state_specs(self):
        return {
            "hits": StateObjectSpec(
                "hits", Scope.PER_FLOW, AccessPattern.READ_WRITE_OFTEN, initial_value=0
            )
        }

    def process(self, packet, state):
        flow = packet.five_tuple.canonical().key()
        yield from state.update("hits", flow, "incr", 1)
        if FlowCounterNF.observed is not None:
            FlowCounterNF.observed.append((flow, packet.clock))
        return [Output(packet)]


@pytest.fixture
def runtime(sim):
    FlowCounterNF.observed = []
    chain = LogicalChain("handover")
    chain.add_vertex("fc", FlowCounterNF, parallelism=2, entry=True)
    return ChainRuntime(sim, chain)


def flow_packet(index, sport):
    return make_packet(src=f"10.0.1.{index}", sport=sport)


class TestHandover:
    def _inject_flows(self, sim, runtime, n_flows=4, packets_per_flow=30, gap=2.0,
                      move_at_packet=None, move_fn=None):
        def source():
            for round_ in range(packets_per_flow):
                for flow in range(n_flows):
                    runtime.inject(flow_packet(flow, 1000 + flow))
                    yield sim.timeout(gap)
                if move_at_packet is not None and round_ == move_at_packet:
                    move_fn()

        sim.process(source())
        sim.run(until=60_000_000)

    def _hits_key(self, flow_index):
        flow = FiveTuple(f"10.0.1.{flow_index}", "52.0.0.1", 1000 + flow_index, 80, 6)
        return StateKey("fc", "hits", flow.canonical().key()).storage_key()

    def test_no_move_baseline(self, sim, runtime):
        self._inject_flows(sim, runtime, n_flows=4, packets_per_flow=20)
        for flow in range(4):
            key = self._hits_key(flow)
            assert runtime.store.instance_for_key(key).peek(key) == 20

    def test_move_is_loss_free(self, sim, runtime):
        splitter = runtime.splitter("fc")
        results = {}

        def do_move():
            # move every flow currently on instance fc-0 to fc-1
            keys = [
                splitter.key_of(flow_packet(i, 1000 + i))
                for i in range(4)
                if splitter.current_instance_for(
                    splitter.key_of(flow_packet(i, 1000 + i))
                ) == "fc-0"
            ]
            assert keys, "test needs at least one flow on fc-0"
            results["moved_keys"] = keys

            def mover():
                outcome = yield from move_flows(runtime, "fc", keys, "fc-1")
                results["move"] = outcome

            sim.process(mover())

        self._inject_flows(
            sim, runtime, n_flows=4, packets_per_flow=40, move_at_packet=10,
            move_fn=do_move,
        )
        assert results["move"].n_keys >= 1
        # Loss-freeness: every packet's update is reflected, across the move.
        for flow in range(4):
            key = self._hits_key(flow)
            assert runtime.store.instance_for_key(key).peek(key) == 40, key
        # Ownership moved to the new instance for the moved flows.
        for flow in range(4):
            key = self._hits_key(flow)
            scope_key = FiveTuple(
                f"10.0.1.{flow}", "52.0.0.1", 1000 + flow, 80, 6
            ).canonical().key()
            if scope_key in results["moved_keys"]:
                assert runtime.store.instance_for_key(key).owner_of(key) == "fc-1"

    def test_move_preserves_order(self, sim, runtime):
        splitter = runtime.splitter("fc")

        def do_move():
            key = splitter.key_of(flow_packet(0, 1000))
            target = (
                "fc-1" if splitter.current_instance_for(key) == "fc-0" else "fc-0"
            )
            sim.process(move_flows(runtime, "fc", [key], target))

        self._inject_flows(
            sim, runtime, n_flows=2, packets_per_flow=50, move_at_packet=15,
            move_fn=do_move,
        )
        # Order preservation: per flow, processing order == clock order.
        per_flow = {}
        for flow, clock in FlowCounterNF.observed:
            per_flow.setdefault(flow, []).append(clock)
        for flow, clocks in per_flow.items():
            assert clocks == sorted(clocks), f"flow {flow} processed out of order"

    def test_move_then_move_back(self, sim, runtime):
        splitter = runtime.splitter("fc")
        key = splitter.key_of(flow_packet(0, 1000))
        home = splitter.current_instance_for(key)
        away = "fc-1" if home == "fc-0" else "fc-0"

        def do_move():
            def mover():
                yield from move_flows(runtime, "fc", [key], away)
                yield from move_flows(runtime, "fc", [key], home)

            sim.process(mover())

        self._inject_flows(
            sim, runtime, n_flows=1, packets_per_flow=60, move_at_packet=20,
            move_fn=do_move,
        )
        hits_key = self._hits_key(0)
        assert runtime.store.instance_for_key(hits_key).peek(hits_key) == 60
        assert runtime.store.instance_for_key(hits_key).owner_of(hits_key) == home

    def test_all_packets_deleted_after_move(self, sim, runtime):
        splitter = runtime.splitter("fc")

        def do_move():
            key = splitter.key_of(flow_packet(0, 1000))
            target = (
                "fc-1" if splitter.current_instance_for(key) == "fc-0" else "fc-0"
            )
            sim.process(move_flows(runtime, "fc", [key], target))

        self._inject_flows(
            sim, runtime, n_flows=2, packets_per_flow=30, move_at_packet=10,
            move_fn=do_move,
        )
        assert runtime.root.stats.injected == 60
        assert runtime.root.stats.deleted == 60


# ----------------------------------------------------------------------
# behaviour preserved: the runs that reallocate through Figure 4, pinned
# in two halves (see tests/test_fastpath.py) at the commit before the
# protocol moved into core.handover
# ----------------------------------------------------------------------

with open(
    os.path.join(os.path.dirname(__file__), "fixtures", "handover_digests.json")
) as _fh:
    PINNED_DIGESTS = json.load(_fh)

OPS_PINNED = (
    "rolling-upgrade",
    "upgrade-new-flows",
    "upgrade-after-failover",
    "upgrade-victim-crash",
    "mitigate-then-upgrade",
    "topology-remove",
)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", OPS_PINNED)
def test_ops_digest_is_pinned(name, seed):
    captured = []
    run_scenario(
        OPS_SCENARIOS[name], seed,
        collect_runtime=lambda rt: captured.append(_halves(rt)),
    )
    assert captured[0] == PINNED_DIGESTS[f"ops/{name}"][str(seed)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["flash-crowd", "overload-burst"])
def test_autoscaled_overload_digest_is_pinned(name, seed):
    runtime = disturbed_run(autoscaled(OVERLOAD_SCENARIOS[name]), seed).runtime
    assert _halves(runtime) == PINNED_DIGESTS[f"overload/{name}/auto=true"][str(seed)]


def test_scope_walk_digest_is_pinned():
    """tests/test_rebalance.py's refinement: six flows of one host, walked
    from per-host to per-flow partitioning after 13 rounds."""
    FlowCounterNF.observed = []
    sim = Simulator()
    chain = LogicalChain("walk")
    chain.add_vertex("fc", FlowCounterNF, parallelism=2, entry=True)
    runtime = ChainRuntime(sim, chain)
    splitter = runtime.splitter("fc")
    splitter.scopes = [FIVE_TUPLE, ("src_ip",)]
    splitter.partition_fields = ("src_ip",)
    runtime._apply_exclusivity()

    def source():
        for round_ in range(40):
            for flow in range(6):
                runtime.inject(flow_packet(0, 1000 + flow))
                yield sim.timeout(2.0)
            if round_ == 12:
                sim.process(handover.rebalance(runtime, "fc"))

    sim.process(source())
    sim.run(until=60_000_000)
    assert splitter.partition_fields == FIVE_TUPLE
    assert _halves(runtime) == PINNED_DIGESTS["rebalance/refine"]
