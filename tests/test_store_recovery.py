"""Datastore recovery tests, including the paper's Figure 7 worked example."""


from repro.simnet.network import Network, Link
from repro.store.cluster import StoreCluster
from repro.store.client import StoreClient
from repro.store.datastore import Checkpoint, DatastoreInstance
from repro.store.operations import default_registry
from repro.store.store_recovery import (
    plan_shared_key_recovery,
    recover_shared_key,
    recover_store_instance,
    select_ts,
)
from repro.store.wal import WriteAheadLog

KEY = "v\x1fshared\x1f"


def build_figure7_wals():
    """The exact §5.4 example: four instances, one shared object.

    Store execution order: U9 U8 U13 U20 U11 R19 U22 U17 U25 U15 R27 U30
    U31 R18 U23 U32 U35, then the store crashes. Clock c's update is an
    ``incr`` by c so values are distinguishable.
    """
    logs = {
        "I1": [9, 20, 15, 35],
        "I2": [11, 22, 25, 30],
        "I3": [8, 17, 23],
        "I4": [13, 31, 32],
    }
    wals = {}
    for instance, clocks in logs.items():
        wal = WriteAheadLog(instance)
        for order, clock in enumerate(clocks):
            wal.log_update(clock, KEY, "incr", (clock,), seq=0, at=float(order))
        wals[instance] = wal

    # Reads with the TS sets of Figure 7 (value = sum of clocks executed
    # before the read, since every update is incr(clock)).
    def ts(i1, i2, i3, i4):
        return {"I1": i1, "I2": i2, "I3": i3, "I4": i4}

    wals["I4"].log_read(19, KEY, value=9 + 8 + 13 + 20 + 11, ts=ts(20, 11, 8, 13), at=10.0)
    wals["I2"].log_read(
        27, KEY, value=9 + 8 + 13 + 20 + 11 + 22 + 17 + 25 + 15, ts=ts(15, 25, 17, 13), at=20.0
    )
    wals["I3"].log_read(
        18,
        KEY,
        value=9 + 8 + 13 + 20 + 11 + 22 + 17 + 25 + 15 + 30 + 31,
        ts=ts(15, 30, 17, 31),
        at=30.0,
    )
    return wals


class TestSelectTs:
    def test_figure7_selects_ts18(self):
        wals = build_figure7_wals()
        reads = [r for wal in wals.values() for r in wal.reads]
        update_logs = {i: wal.updates_for(KEY) for i, wal in wals.items()}
        selected = select_ts(reads, update_logs)
        assert selected is not None
        assert selected.clock == 18  # "most recent clock does not correspond
        #                              to most recent read" — 27 > 18, yet R18 wins

    def test_no_reads_is_case1(self):
        assert select_ts([], {"I1": []}) is None

    def test_single_read_selected(self):
        wal = WriteAheadLog("I1")
        wal.log_update(5, KEY, "incr", (5,), at=0.0)
        wal.log_read(6, KEY, value=5, ts={"I1": 5}, at=1.0)
        selected = select_ts(wal.reads, {"I1": wal.updates_for(KEY)})
        assert selected.clock == 6


class TestRecoverSharedKey:
    def test_figure7_reexecutes_the_right_ops(self):
        wals = build_figure7_wals()
        checkpoint = Checkpoint(taken_at=0.0, data={KEY: 0}, ts={})
        plan = plan_shared_key_recovery(KEY, checkpoint, wals)
        assert plan.case == 2
        reexecuted = {(instance, entry.clock) for instance, entry in plan.entries}
        assert reexecuted == {("I1", 35), ("I3", 23), ("I4", 32)}

    def test_figure7_final_value_matches_no_failure(self):
        wals = build_figure7_wals()
        checkpoint = Checkpoint(taken_at=0.0, data={KEY: 0}, ts={})
        outcome = recover_shared_key(KEY, checkpoint, wals, default_registry())
        all_clocks = [9, 20, 15, 35, 11, 22, 25, 30, 8, 17, 23, 13, 31, 32]
        assert outcome.value == sum(all_clocks)
        assert outcome.case == 2

    def test_case1_replays_from_checkpoint_ts(self):
        wal = WriteAheadLog("I1")
        for order, clock in enumerate([1, 2, 3, 4]):
            wal.log_update(clock, KEY, "incr", (1,), at=float(order))
        checkpoint = Checkpoint(taken_at=10.0, data={KEY: 2}, ts={KEY: {"I1": 2}})
        outcome = recover_shared_key(KEY, checkpoint, {"I1": wal}, default_registry())
        assert outcome.case == 1
        assert outcome.reexecuted_ops == 2  # clocks 3 and 4
        assert outcome.value == 4

    def test_case1_unknown_instance_replays_everything(self):
        wal = WriteAheadLog("I9")
        wal.log_update(7, KEY, "incr", (7,), at=0.0)
        checkpoint = Checkpoint(taken_at=0.0, data={}, ts={})
        outcome = recover_shared_key(KEY, checkpoint, {"I9": wal}, default_registry())
        assert outcome.value == 7

    def test_no_checkpoint_at_all(self):
        wal = WriteAheadLog("I1")
        wal.log_update(1, KEY, "incr", (5,), at=0.0)
        outcome = recover_shared_key(KEY, None, {"I1": wal}, default_registry())
        assert outcome.value == 5


class TestFullStoreRecovery:
    def test_end_to_end_recovery(self, sim):
        network = Network(sim, Link(latency_us=14.0), seed=3)
        store = DatastoreInstance(sim, network, "storeA", checkpoint_interval_us=None)
        cluster = StoreCluster([store])
        from tests.conftest import default_specs

        clients = [
            StoreClient(sim, network, cluster, "v", f"i{k}", default_specs())
            for k in range(3)
        ]
        from tests.conftest import make_packet

        def workload(client, base_clock):
            def body():
                for offset in range(10):
                    client.begin_packet(make_packet(clock=base_clock + offset))
                    yield from client.update("counter", None, "incr", 1)
                    yield from client.update(
                        "flow_state",
                        ("10.0.0.%d" % base_clock, "52.0.0.1", base_clock, 80, 6),
                        "incr",
                        1,
                    )
                yield client.ack_barrier()

            return body

        for index, client in enumerate(clients):
            sim.run_process(workload(client, (index + 1) * 100)())
        store.take_checkpoint()
        # a few more shared updates after the checkpoint
        for index, client in enumerate(clients):
            def more(c=client, b=(index + 1) * 100 + 50):
                c.begin_packet(make_packet(clock=b))
                yield from c.update("counter", None, "incr", 1)
                yield c.ack_barrier()
            sim.run_process(more())

        counter_key = clients[0]._key("counter", None)
        expected = store.peek(counter_key)
        assert expected == 33

        store.fail()

        def recovery():
            result = yield from recover_store_instance(
                sim, cluster, store, clients, "storeB"
            )
            return result

        result = sim.run_process(recovery())
        assert result.duration_us > 0
        replacement = result.replacement
        assert replacement.peek(counter_key) == expected
        assert result.per_flow_keys == 3
        # routing now points at the replacement
        assert cluster.endpoint_for_key(counter_key) == "storeB"
        # per-flow state recovered from the owners' caches
        assert result.reexecuted_ops >= 3
