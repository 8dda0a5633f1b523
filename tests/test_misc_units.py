"""Unit tests for the remaining small modules: util, failure injection,
bench helpers, cluster routing, and NF instance odds and ends."""

import os

import pytest

from repro.bench.calibration import bench_scale, params_for_model
from repro.bench.report import ResultTable, fmt_gbps, fmt_us, write_result
from repro.core.chain_runtime import ChainRuntime
from repro.core.dag import LogicalChain
from repro.simnet.failures import FailureInjector
from repro.store.cluster import StoreCluster
from repro.store.datastore import DatastoreInstance
from repro.store.keys import StateKey
from repro.util import Memo, fields_subset, stable_hash
from tests.conftest import make_packet
from tests.test_cloning import SlowCounterNF


class TestUtil:
    def test_stable_hash_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))

    def test_stable_hash_types(self):
        assert isinstance(stable_hash(b"bytes"), int)
        assert stable_hash("x") != stable_hash("y")

    def test_fields_subset(self):
        assert fields_subset(("src_ip",), ("src_ip", "dst_ip"))
        assert not fields_subset(("src_ip", "dst_port"), ("src_ip",))
        assert fields_subset((), ("src_ip",))


    def test_memo_computes_once_per_argument(self):
        calls = []
        memo = Memo(lambda arg: calls.append(arg) or arg * 2)
        assert [memo[3], memo[3], memo[4], memo[3]] == [6, 6, 8, 6]
        assert calls == [3, 4]
        memo.clear()  # what the owner does when fn's other inputs change
        assert memo[3] == 6 and calls == [3, 4, 3]

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(Memo, "LIMIT", 8)
        memo = Memo(lambda arg: -arg)
        for arg in range(100):
            assert memo[arg] == -arg
            assert len(memo) <= 8


class TestFailureInjector:
    def test_fail_at_schedules(self, sim, network):
        store = DatastoreInstance(sim, network, "doomed")
        injector = FailureInjector(sim)
        observed = []
        injector.on_failure(observed.append)
        injector.fail_at(50.0, store)
        sim.run(until=100.0)
        assert not store.alive
        assert observed == [store]
        assert injector.failed == [store]

    def test_fail_in_the_past_rejected(self, sim, network):
        store = DatastoreInstance(sim, network, "d2")
        injector = FailureInjector(sim)
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            injector.fail_at(5.0, store)


class TestBenchHelpers:
    def test_params_for_models(self):
        eo = params_for_model("EO")
        assert eo.caching_enabled is False and eo.wait_for_acks is True
        na = params_for_model("EO+C+NA")
        assert na.caching_enabled is True and na.wait_for_acks is False
        with pytest.raises(ValueError):
            params_for_model("T")
        with pytest.raises(ValueError):
            params_for_model("bogus")

    def test_bench_scale_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")
        assert bench_scale() == 0.01
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert bench_scale(0.002) == 0.002

    def test_result_table_render(self):
        table = ResultTable("Title", ["a", "bb"])
        table.add("x", 1)
        table.add("longer", 22)
        table.note("a note")
        rendered = table.render()
        assert "Title" in rendered
        assert "longer  22" in rendered
        assert "note: a note" in rendered

    def test_write_result_persists(self, tmp_path, monkeypatch):
        import repro.bench.report as report

        monkeypatch.setattr(report, "results_dir", lambda: str(tmp_path))
        table = ResultTable("T", ["c"])
        table.add("v")
        path = write_result("unit", [table], echo=False)
        assert os.path.exists(path)
        assert "T" in open(path).read()

    def test_formatters(self):
        assert fmt_us(1.234) == "1.23us"
        assert fmt_us(None) == "-"
        assert fmt_gbps(9.5) == "9.50Gbps"


class TestClusterRouting:
    def test_vertex_assignment_wins(self, sim, network):
        a = DatastoreInstance(sim, network, "sa")
        b = DatastoreInstance(sim, network, "sb")
        cluster = StoreCluster([a, b])
        cluster.assign_vertex("nat", "sb")
        key = StateKey("nat", "x").storage_key()
        assert cluster.endpoint_for_key(key) == "sb"

    def test_assignment_to_unknown_instance_rejected(self, sim, network):
        cluster = StoreCluster([DatastoreInstance(sim, network, "only")])
        with pytest.raises(KeyError):
            cluster.assign_vertex("nat", "ghost")

    def test_replace_updates_assignments(self, sim, network):
        a = DatastoreInstance(sim, network, "olds")
        cluster = StoreCluster([a])
        cluster.assign_vertex("nat", "olds")
        b = DatastoreInstance(sim, network, "news")
        cluster.replace_instance("olds", b)
        key = StateKey("nat", "x").storage_key()
        assert cluster.endpoint_for_key(key) == "news"

    def test_memoised_route_follows_every_routing_change(self, sim, network):
        stores = [DatastoreInstance(sim, network, name) for name in ("ma", "mb")]
        cluster = StoreCluster(stores)
        key = StateKey("nat", "x").storage_key()
        hashed = cluster.endpoint_for_key(key)  # now memoised
        other = "mb" if hashed == "ma" else "ma"
        cluster.assign_vertex("nat", other)
        assert cluster.endpoint_for_key(key) == other
        cluster.replace_instance(other, DatastoreInstance(sim, network, "mc"))
        assert cluster.endpoint_for_key(key) == "mc"
        cluster.unassign_vertex("nat")
        assert cluster.endpoint_for_key(key) == ("mc" if hashed == other else hashed)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            StoreCluster([])

    def test_register_custom_op_everywhere(self, sim, network):
        a = DatastoreInstance(sim, network, "ca")
        b = DatastoreInstance(sim, network, "cb")
        cluster = StoreCluster([a, b])
        cluster.register_custom_op("noop", lambda v: (v, v))
        assert "noop" in a.registry and "noop" in b.registry


class TestInstanceOddsAndEnds:
    def _runtime(self, sim):
        chain = LogicalChain("odds")
        chain.add_vertex("slow", SlowCounterNF, entry=True)
        return ChainRuntime(sim, chain)

    def test_allocation_query(self, sim, network):
        runtime = self._runtime(sim)
        from repro.simnet.rpc import RpcEndpoint

        asker = RpcEndpoint(sim, runtime.network, "asker")

        def body():
            value = yield asker.call_event("slow-0", "allocation")
            return value

        allocation = sim.run_process(body())
        assert allocation["instances"] == ["slow-0"]
        assert "partition_fields" in allocation

    def test_unknown_query_rejected(self, sim):
        runtime = self._runtime(sim)
        from repro.simnet.rpc import RpcEndpoint

        asker = RpcEndpoint(sim, runtime.network, "asker")

        def body():
            yield asker.call_event("slow-0", "bogus")

        proc = sim.process(body())
        sim.run()
        assert not proc.ok

    def test_queue_depth_counts_all_queues(self, sim):
        runtime = self._runtime(sim)
        instance = runtime.instances_of("slow")[0]
        for index in range(5):
            instance.enqueue(make_packet(sport=6000 + index))
        assert instance.queue_depth == 5

    def test_failed_instance_rejects_nothing_but_does_nothing(self, sim):
        runtime = self._runtime(sim)
        instance = runtime.instances_of("slow")[0]
        instance.fail()
        instance.enqueue(make_packet())
        sim.run(until=10_000)
        assert instance.stats.processed == 0

    def test_stop_buffering_idempotent(self, sim):
        runtime = self._runtime(sim)
        instance = runtime.add_instance("slow", "b", start_buffering=True)
        instance.enqueue(make_packet(sport=7000))
        sim.run(until=100)
        assert instance.stats.buffered == 1
        instance.stop_buffering()
        instance.stop_buffering()  # no-op
        sim.run(until=10_000)
        assert instance.stats.processed == 1
