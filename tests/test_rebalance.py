"""Scope-aware partitioning walk (§4.1) with loss-free refinement."""


from repro.core import handover
from repro.core.chain_runtime import ChainRuntime
from repro.core.dag import LogicalChain
from repro.core.splitter import FIVE_TUPLE
from repro.nfs import Dpi
from tests.conftest import make_packet
from tests.test_handover import FlowCounterNF, flow_packet


class TestInitialPartitioning:
    def test_starts_at_coarsest_scope(self, sim):
        chain = LogicalChain("dpi")
        chain.add_vertex("dpi", Dpi, parallelism=2, entry=True)
        runtime = ChainRuntime(sim, chain)
        # DPI's scopes are [5-tuple, (src_ip,)]; partitioning starts coarse
        assert runtime.splitter("dpi").partition_fields == ("src_ip",)

    def test_coarse_split_grants_exclusive_caching(self, sim):
        chain = LogicalChain("dpi")
        chain.add_vertex("dpi", Dpi, parallelism=2, entry=True)
        runtime = ChainRuntime(sim, chain)
        for instance in runtime.instances_of("dpi"):
            # per-src-IP split confines the per-host counter to one instance
            assert instance.client._exclusive["conns_per_host"] is True

    def test_same_host_flows_colocated_under_coarse_split(self, sim):
        chain = LogicalChain("dpi")
        chain.add_vertex("dpi", Dpi, parallelism=2, entry=True)
        runtime = ChainRuntime(sim, chain)
        splitter = runtime.splitter("dpi")
        destinations = {
            splitter.route(make_packet(src="10.0.8.1", sport=port))[0]
            for port in range(1000, 1040)
        }
        assert len(destinations) == 1


class TestRefinement:
    def _runtime(self, sim):
        FlowCounterNF.observed = []
        chain = LogicalChain("walk")
        chain.add_vertex("fc", FlowCounterNF, parallelism=2, entry=True)
        runtime = ChainRuntime(sim, chain)
        # declare a coarse->fine walk and start coarse
        splitter = runtime.splitter("fc")
        splitter.scopes = [FIVE_TUPLE, ("src_ip",)]
        splitter.partition_fields = ("src_ip",)
        runtime._apply_exclusivity()
        return runtime

    def test_refine_remaps_and_loses_nothing(self, sim):
        runtime = self._runtime(sim)
        # skew: all flows from one host -> one instance does all the work
        packets_per_flow = 40
        n_flows = 6
        done = {}

        def source():
            for round_ in range(packets_per_flow):
                for flow in range(n_flows):
                    runtime.inject(flow_packet(0, 1000 + flow))  # same src IP!
                    yield sim.timeout(2.0)
                if round_ == 12 and "rebalanced" not in done:
                    done["rebalanced"] = True

                    def rebalance():
                        done["moves"] = yield from handover.rebalance(runtime, "fc")

                    sim.process(rebalance())

        sim.process(source())
        sim.run(until=60_000_000)

        assert runtime.splitter("fc").partition_fields == FIVE_TUPLE
        # loss-freeness across the refinement: every flow's count exact
        store = runtime.stores[0]
        for flow in range(n_flows):
            keys = [k for k in store.keys() if f"|{1000 + flow}|" in k]
            assert keys and store.peek(keys[0]) == packets_per_flow
        # the skewed load now spreads across both instances
        processed = [i.stats.processed for i in runtime.instances_of("fc") if i.alive]
        assert all(p > 0 for p in processed)

    def test_refine_preserves_per_flow_order(self, sim):
        runtime = self._runtime(sim)
        done = {}

        def source():
            for round_ in range(50):
                for flow in range(4):
                    runtime.inject(flow_packet(0, 2000 + flow))
                    yield sim.timeout(2.0)
                if round_ == 15 and "r" not in done:
                    done["r"] = True
                    sim.process(handover.rebalance(runtime, "fc"))

        sim.process(source())
        sim.run(until=60_000_000)
        per_flow = {}
        for flow, clock in FlowCounterNF.observed:
            per_flow.setdefault(flow, []).append(clock)
        for flow, clocks in per_flow.items():
            assert clocks == sorted(clocks)

    def test_refine_at_finest_scope_is_noop(self, sim):
        runtime = self._runtime(sim)
        splitter = runtime.splitter("fc")
        splitter.partition_fields = FIVE_TUPLE

        def body():
            result = yield from handover.rebalance(runtime, "fc")
            return result

        assert sim.run_process(body()) is None

    def test_refinement_withdraws_exclusivity(self, sim):
        chain = LogicalChain("dpi")
        chain.add_vertex("dpi", Dpi, parallelism=2, entry=True)
        runtime = ChainRuntime(sim, chain)

        def body():
            yield from handover.rebalance(runtime, "dpi")

        sim.run_process(body())
        assert runtime.splitter("dpi").partition_fields == FIVE_TUPLE
        for instance in runtime.instances_of("dpi"):
            # per-host counter now shared across instances: no caching
            assert instance.client._exclusive["conns_per_host"] is False
