"""Store replication (§5.4 "Correlated failures" mitigation).

The paper leaves this as the stated mitigation: replicated store
instances survive the correlated component+store failure that plain CHC
cannot, at the cost of per-packet latency (synchronous mode).
"""

import pytest

from repro.simnet.rpc import RpcEndpoint
from repro.store.cluster import StoreCluster
from repro.store.datastore import DatastoreInstance
from repro.store.protocol import OpRequest, OwnerRequest, ReadRequest


@pytest.fixture
def mirrored(sim, network):
    mirror = DatastoreInstance(sim, network, "mirror0")
    primary = DatastoreInstance(
        sim, network, "primary0", mirror="mirror0", sync_replication=False
    )
    return primary, mirror


def call(sim, caller, payload, dst):
    def body():
        value = yield caller.call_event(dst, payload)
        return value

    return sim.run_process(body())


class TestReplication:
    def test_updates_reach_the_mirror(self, sim, network, mirrored):
        primary, mirror = mirrored
        caller = RpcEndpoint(sim, network, "nf-0")
        call(sim, caller, OpRequest(key="k", op="incr", args=(3,), instance="nf-0"), "primary0")
        sim.run()
        assert primary.peek("k") == 3
        assert mirror.peek("k") == 3

    def test_mirror_keeps_dedup_identity(self, sim, network, mirrored):
        primary, mirror = mirrored
        caller = RpcEndpoint(sim, network, "nf-0")
        call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="a", clock=9), "primary0")
        sim.run()
        # after promotion, a retransmitted duplicate is emulated, not applied
        result = call(
            sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="b", clock=9), "mirror0"
        )
        assert result.emulated
        assert mirror.peek("k") == 1

    def test_ownership_metadata_replicates(self, sim, network, mirrored):
        primary, mirror = mirrored
        caller = RpcEndpoint(sim, network, "nf-0")
        call(sim, caller, OwnerRequest(key="pf", instance="nf-0", action="associate"), "primary0")
        sim.run()
        assert mirror.owner_of("pf") == "nf-0"

    def test_sync_replication_adds_latency(self, sim, network):
        DatastoreInstance(sim, network, "m-async")
        DatastoreInstance(sim, network, "m-sync")
        fast = DatastoreInstance(sim, network, "p-async", mirror="m-async")
        slow = DatastoreInstance(
            sim, network, "p-sync", mirror="m-sync", sync_replication=True
        )
        caller = RpcEndpoint(sim, network, "nf-0")

        def timed(dst):
            def body():
                start = sim.now
                yield caller.call_event(dst, OpRequest(key="k", op="incr", args=(1,), instance="x"))
                return sim.now - start

            return sim.run_process(body())

        async_latency = timed("p-async")
        sync_latency = timed("p-sync")
        # the paper's stated cost: synchronous replication adds a store RTT
        assert sync_latency >= async_latency + 28.0

    def test_promotion_survives_correlated_failure(self, sim, network, mirrored):
        primary, mirror = mirrored
        cluster = StoreCluster([primary])
        caller = RpcEndpoint(sim, network, "nf-0")
        for clock in range(1, 11):
            call(
                sim, caller,
                OpRequest(key="k", op="incr", args=(1,), instance="nf-0", clock=clock),
                "primary0",
            )
        sim.run()
        primary.fail()  # together with, say, the NF whose state it held
        cluster.replace_instance(primary.name, mirror)
        assert cluster.endpoint_for_key("k") == "mirror0"
        read = call(sim, caller, ReadRequest(key="k"), "mirror0")
        assert read.value == 10
