"""Correlated failures (Table 3 and §5.4 "Correlated failures").

Table 3's matrix: an NF instance and the root can fail together and both
recover — *if* the packet log is kept in the store (a locally-logged root
loses the log, and with it the ability to replay the NF's in-flight
packets). A component failing together with the store instance holding
its state cannot recover (the paper's stated limitation, addressed only
by store replication).
"""


from repro.core.chain_runtime import ChainRuntime, RuntimeParams
from repro.core.dag import LogicalChain
from repro.core.recovery import fail_over_nf, fail_over_root
from repro.simnet.engine import Simulator
from repro.store.keys import StateKey
from repro.store.store_recovery import recover_store_instance
from tests.conftest import make_packet
from tests.test_cloning import SinkCounterNF, SlowCounterNF

N_PACKETS = 60


def build(sim, **params):
    chain = LogicalChain("corr")
    chain.add_vertex("slow", SlowCounterNF, entry=True)
    chain.add_vertex("sink", SinkCounterNF)
    chain.add_edge("slow", "sink")
    return ChainRuntime(sim, chain, params=RuntimeParams(**params))


def peek(runtime, vertex, obj):
    key = StateKey(vertex, obj).storage_key()
    return runtime.store.instance_for_key(key).peek(key)


def run_workload(sim, runtime, crash=None):
    def source():
        for index in range(N_PACKETS):
            runtime.inject(make_packet(sport=1000 + (index % 5)))
            yield sim.timeout(3.0)
            if crash is not None:
                crash(index)

    sim.process(source())
    sim.run(until=60_000_000)


class TestNfPlusRoot:
    def test_recoverable_with_store_kept_log(self):
        sim = Simulator()
        runtime = build(sim, log_in_store=True)
        results = {}

        def crash(index):
            if index == 20:
                # simultaneous fail-stop of the NF and the root
                runtime.instances["slow-0"].fail()
                runtime.root.fail()

                def recover():
                    results["root"] = yield from fail_over_root(runtime)
                    results["nf"] = yield from fail_over_nf(runtime, "slow-0")

                sim.process(recover())

        run_workload(sim, runtime, crash)
        # the store-kept log survived the root: in-flight packets were
        # replayed and chain-wide state is exactly the no-failure state
        assert peek(runtime, "slow", "total") == N_PACKETS
        assert peek(runtime, "sink", "seen") == N_PACKETS
        assert results["nf"].replayed > 0

    def test_local_log_loses_in_flight_packets(self):
        sim = Simulator()
        runtime = build(sim, log_in_store=False)
        results = {}

        def crash(index):
            if index == 20:
                runtime.instances["slow-0"].fail()
                runtime.root.fail()

                def recover():
                    results["root"] = yield from fail_over_root(runtime)
                    results["nf"] = yield from fail_over_nf(runtime, "slow-0")

                sim.process(recover())

        run_workload(sim, runtime, crash)
        total = peek(runtime, "slow", "total")
        # in-flight packets at crash time are gone (network drops,
        # Theorem B.3.1) but nothing else is: the count lands close to
        # N_PACKETS and never exceeds it
        assert total is not None
        assert N_PACKETS - 25 <= total <= N_PACKETS


class TestNfPlusStore:
    def test_per_flow_state_of_dead_nf_is_lost(self):
        """The paper's stated unrecoverable case: per-flow state cached at
        the failed NF AND stored in the failed store instance dies."""
        sim = Simulator()
        runtime = build(sim)
        state = {}

        def crash(index):
            if index == 20:
                failed_store = runtime.stores[0]
                failed_store.take_checkpoint()
                runtime.instances["slow-0"].fail()   # its cache dies
                failed_store.fail()                  # and so does the store

                def recover():
                    # store recovery can only consult *surviving* clients
                    survivors = [
                        i.client for i in runtime.instances.values() if i.alive
                    ]
                    result = yield from recover_store_instance(
                        sim, runtime.store,
                        failed_store, survivors, "storeR",
                    )
                    state["store"] = result
                    result2 = yield from fail_over_nf(runtime, "slow-0")
                    state["nf"] = result2

                sim.process(recover())

        run_workload(sim, runtime, crash)
        replacement_store = state["store"].replacement
        # shared state: recovered from checkpoint + surviving WALs
        shared_key = StateKey("slow", "total").storage_key()
        assert replacement_store.peek(shared_key) is not None
        # per-flow state owned by the dead NF could not be read from any
        # surviving cache — Table 3's asterisk: this correlated failure is
        # unrecoverable without store replication.
        assert state["store"].per_flow_keys == 0


class TestStoreAloneStillFine:
    def test_store_failure_with_live_nfs_recovers_fully(self):
        sim = Simulator()
        runtime = build(sim)
        state = {}

        def crash(index):
            if index == 20:
                failed_store = runtime.stores[0]
                failed_store.take_checkpoint()
                failed_store.fail()

                def recover():
                    clients = [i.client for i in runtime.instances.values() if i.alive]
                    state["store"] = yield from recover_store_instance(
                        sim, runtime.store,
                        failed_store, clients, "storeR",
                    )

                sim.process(recover())

        run_workload(sim, runtime, crash)
        replacement = state["store"].replacement
        per_flow = [k for k in replacement.keys() if "hits" in k]
        # per-flow state fully restored from the live NF caches
        assert sum(replacement.peek(k) or 0 for k in per_flow) == N_PACKETS
