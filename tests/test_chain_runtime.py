"""Integration tests for the chain runtime: routing, accounting, egress."""

import pytest

from repro.core.chain_runtime import ChainRuntime, RuntimeParams
from repro.core.dag import LogicalChain
from repro.core.nf_api import NetworkFunction, Output
from repro.simnet.engine import Simulator
from repro.store.keys import StateKey
from repro.store.spec import AccessPattern, Scope, StateObjectSpec
from repro.traffic.trace import make_trace2
from repro.traffic.workload import ReplaySource
from tests.conftest import make_packet


@pytest.fixture(autouse=True)
def _no_process_crashed(sim):
    """Every run in this file is fault-free: no worker, store thread or
    root loop may have died of an exception behind the assertions' back."""
    yield
    assert sim.crashed == []


class CountingNF(NetworkFunction):
    """Counts every packet in a shared counter and forwards it."""

    name = "count"

    def state_specs(self):
        return {
            "seen": StateObjectSpec(
                "seen", Scope.CROSS_FLOW, AccessPattern.WRITE_MOSTLY, (), initial_value=0
            )
        }

    def process(self, packet, state):
        yield from state.update("seen", None, "incr", 1)
        return [Output(packet)]


class DroppingNF(NetworkFunction):
    name = "dropper"

    def process(self, packet, state):
        return []
        yield


class AlertingNF(NetworkFunction):
    """Forwards traffic and raises an alert copy for SYNs."""

    name = "alerter"

    def process(self, packet, state):
        outputs = [Output(packet)]
        if packet.is_syn:
            outputs.append(Output(packet.copy(), edge="alert"))
        return outputs
        yield


def build(sim, vertices, edges, params=None, **kwargs):
    chain = LogicalChain("t")
    for index, (name, factory, parallelism) in enumerate(vertices):
        chain.add_vertex(name, factory, parallelism=parallelism, entry=index == 0)
    for edge in edges:
        chain.add_edge(*edge[:2], **(edge[2] if len(edge) > 2 else {}))
    return ChainRuntime(sim, chain, params=params, **kwargs)


class TestLinearChain:
    def test_all_packets_traverse_and_delete(self, sim):
        runtime = build(
            sim,
            [("a", CountingNF, 1), ("b", CountingNF, 1)],
            [("a", "b")],
        )
        for sport in range(30):
            runtime.inject(make_packet(sport=1000 + sport))
        sim.run()
        assert runtime.egress_meter.packets == 30
        assert runtime.root.stats.deleted == 30
        assert len(runtime.root.log) == 0
        key_a = StateKey("a", "seen").storage_key()
        key_b = StateKey("b", "seen").storage_key()
        assert runtime.store.instance_for_key(key_a).peek(key_a) == 30
        assert runtime.store.instance_for_key(key_b).peek(key_b) == 30

    def test_dropped_packets_still_deleted(self, sim):
        runtime = build(
            sim,
            [("a", CountingNF, 1), ("drop", DroppingNF, 1)],
            [("a", "drop")],
        )
        for sport in range(10):
            runtime.inject(make_packet(sport=2000 + sport))
        sim.run()
        assert runtime.egress_meter.packets == 0
        assert runtime.root.stats.deleted == 10

    def test_egress_latency_recorded(self, sim):
        runtime = build(sim, [("a", CountingNF, 1)], [])
        runtime.inject(make_packet())
        sim.run()
        assert len(runtime.egress_recorder) == 1
        assert runtime.egress_recorder.values[0] > 0


class TestFanOutAndMirrors:
    def test_mirror_copies_main_output(self, sim):
        runtime = build(
            sim,
            [("a", CountingNF, 1), ("b", CountingNF, 1), ("tap", CountingNF, 1)],
            [("a", "b"), ("a", "tap", {"mirror": True})],
        )
        for sport in range(20):
            runtime.inject(make_packet(sport=3000 + sport))
        sim.run()
        key_tap = StateKey("tap", "seen").storage_key()
        assert runtime.store.instance_for_key(key_tap).peek(key_tap) == 20
        # both the main path and the tap exit; all log entries clear
        assert runtime.root.stats.deleted == 20
        assert runtime.egress_meter.packets == 40  # b + tap are both sinks

    def test_labelled_edge_routing(self, sim):
        runtime = build(
            sim,
            [("a", AlertingNF, 1), ("main", CountingNF, 1), ("alerts", CountingNF, 1)],
            [("a", "main"), ("a", "alerts", {"label": "alert"})],
        )
        runtime.inject(make_packet(flags=0x02))  # SYN
        runtime.inject(make_packet(sport=4242))  # plain
        sim.run()
        key_main = StateKey("main", "seen").storage_key()
        key_alerts = StateKey("alerts", "seen").storage_key()
        assert runtime.store.instance_for_key(key_main).peek(key_main) == 2
        assert runtime.store.instance_for_key(key_alerts).peek(key_alerts) == 1
        assert runtime.root.stats.deleted == 2

    def test_unmatched_label_goes_to_egress(self, sim):
        runtime = build(sim, [("a", AlertingNF, 1), ("b", CountingNF, 1)], [("a", "b")])
        runtime.inject(make_packet(flags=0x02))  # SYN -> alert has no edge
        sim.run()
        assert runtime.root.stats.deleted == 1
        # the alert surfaced at egress from vertex "a"
        egress_sources = [v for v, _p in runtime.egress.items()]
        assert "a" in egress_sources


class TestParallelInstances:
    def test_flows_partitioned_across_instances(self, sim):
        runtime = build(sim, [("a", CountingNF, 3)], [])
        for sport in range(120):
            runtime.inject(make_packet(sport=5000 + sport))
        sim.run()
        processed = [i.stats.processed for i in runtime.instances_of("a")]
        assert sum(processed) == 120
        assert all(p > 0 for p in processed)
        assert runtime.root.stats.deleted == 120

    def test_flow_affinity_within_instance(self, sim):
        runtime = build(sim, [("a", CountingNF, 3)], [])
        for _ in range(10):
            runtime.inject(make_packet())  # same five-tuple every time
        sim.run()
        processed = sorted(i.stats.processed for i in runtime.instances_of("a"))
        assert processed == [0, 0, 10]


class TestDuplicateFilter:
    def test_duplicate_clock_suppressed(self, sim):
        runtime = build(sim, [("a", CountingNF, 1)], [])
        # two copies of the same in-flight packet reach the same queue
        # (what straggler/clone replication produces)
        packet = make_packet(clock=777)
        runtime._deliver("a", packet)
        runtime._deliver("a", packet.copy())
        sim.run()
        assert runtime.instances_of("a")[0].stats.processed == 1
        assert runtime.duplicates_suppressed == 1

    def test_filter_forgets_after_delete(self, sim):
        # once a packet's log entry is deleted, its clock may legitimately
        # be pruned from the filters (bounded memory)
        runtime = build(sim, [("a", CountingNF, 1)], [])
        packet = make_packet()
        runtime.inject(packet)
        sim.run()
        assert runtime.root.stats.deleted == 1
        assert all(len(i.filter) == 0 for i in runtime.instances.values())

    def test_suppression_disabled_lets_duplicates_through(self, sim):
        params = RuntimeParams(suppress_duplicates=False)
        runtime = build(sim, [("a", CountingNF, 1)], [], params=params)
        packet = make_packet()
        runtime.inject(packet)
        # processed and deleted, its 10 ms grace window still open: a late
        # copy is recognised until the runtime forgets the clock
        sim.run(until=1_000.0)
        assert runtime.root.stats.deleted == 1
        duplicate = packet.copy()
        runtime._deliver("a", duplicate)
        sim.run()
        instance = runtime.instances_of("a")[0]
        assert instance.stats.processed == 2
        assert instance.stats.duplicates_seen == 1
        assert not instance._seen_clocks  # forgotten with the filters' copy


class TestTraceRun:
    def test_small_trace_end_to_end(self, sim):
        runtime = build(
            sim,
            [("a", CountingNF, 2), ("b", CountingNF, 1)],
            [("a", "b")],
        )
        trace = make_trace2(scale=0.0003)
        ReplaySource(sim, trace.packets, runtime.inject, load_fraction=0.5)
        sim.run(until=60_000_000)
        assert runtime.root.stats.injected == len(trace)
        assert runtime.root.stats.deleted == len(trace)
        assert runtime.egress_meter.packets == len(trace)

    def test_deterministic_across_runs(self):
        def run_once():
            sim = Simulator()
            runtime = build(
                sim, [("a", CountingNF, 2), ("b", CountingNF, 1)], [("a", "b")]
            )
            trace = make_trace2(scale=0.0002)
            ReplaySource(sim, trace.packets, runtime.inject, load_fraction=0.5)
            sim.run(until=60_000_000)
            assert sim.crashed == []
            return (
                runtime.egress_recorder.values,
                [i.stats.processed for i in runtime.instances.values()],
            )

        assert run_once() == run_once()
