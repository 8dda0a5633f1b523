"""Datastore recovery tests, including the paper's Figure 7 worked example."""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.clock import SEQUENCE_MASK, make_clock
from repro.simnet.network import Network, Link
from repro.store import wal as wal_module
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
from repro.store.wal import UpdateLogEntry, WriteAheadLog

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


# ---------------------------------------------------------------------------
# the columnar WAL against the list of entries it replaced
# ---------------------------------------------------------------------------


class ListWal:
    """The update half of the WAL as it was: one ``UpdateLogEntry`` per
    update, kept in a list, every query a scan of it."""

    def __init__(self):
        self.updates = []

    def log_update(self, clock, key, op, args, seq=0, at=0.0):
        self.updates.append(UpdateLogEntry(clock, key, op, args, seq, at))

    def updates_for(self, key):
        return [entry for entry in self.updates if entry.key == key]

    def updates_after(self, key, clock):
        entries = self.updates_for(key)
        for index, entry in enumerate(entries):
            if entry.clock == clock:
                return entries[index + 1 :]
        return entries

    def truncate(self):
        self.updates.clear()

    def __len__(self):
        return len(self.updates)


WAL_KEYS = ["v\x1fshared\x1f", "v\x1fhits\x1fa", "w\x1ftotal\x1f"]
# root id 255 sets the top bit: a signed 64-bit column would overflow
WAL_CLOCKS = [
    0, 1, 2, make_clock(1, 3), make_clock(127, 1), make_clock(128, 1),
    make_clock(255, 0), make_clock(255, SEQUENCE_MASK),
]
wal_steps = st.one_of(
    st.tuples(
        st.just("log"),
        st.sampled_from(WAL_CLOCKS),
        st.sampled_from(WAL_KEYS),
        st.sampled_from(["incr", "set", "add_to_set"]),
        # equal under ==, told apart by type: none may turn into another
        st.sampled_from([(1,), (True,), (1.0,), (2, "x"), ()]),
        st.integers(0, 3),
        st.floats(0.0, 1e6, allow_nan=False),
    ),
    st.just(("truncate",)),
)


class TestColumnarWal:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(wal_steps, max_size=30))
    def test_reads_back_what_the_list_of_entries_held(self, steps):
        wal, reference = WriteAheadLog("I1"), ListWal()
        for step in steps:
            for log in (wal, reference):
                if step[0] == "log":
                    log.log_update(*step[1:])
                else:
                    log.truncate()
        assert wal.updates == reference.updates
        assert repr(wal.updates) == repr(reference.updates)  # args types and floats too
        assert len(wal) == len(reference)
        assert wal.updated_keys() == list(dict.fromkeys(e.key for e in reference.updates))
        for key in WAL_KEYS:
            assert repr(wal.updates_for(key)) == repr(reference.updates_for(key))
            for clock in WAL_CLOCKS:
                assert repr(wal.updates_after(key, clock)) == repr(
                    reference.updates_after(key, clock)
                )

    def test_store_recovery_views_each_logged_update_once(self, sim, monkeypatch):
        """K keys over N logged updates: recovery builds N read views in
        total, not one scan of every WAL per key (K x N)."""
        built = []

        class Counted(UpdateLogEntry):
            __slots__ = ()

            def __new__(cls, *fields):
                built.append(fields)
                return super().__new__(cls, *fields)

        monkeypatch.setattr(wal_module, "UpdateLogEntry", Counted)
        keys = [f"v\x1fshared{k}\x1f" for k in range(6)]
        wals = {instance: WriteAheadLog(instance) for instance in ("I1", "I2")}
        logged = 0
        for clock in range(1, 21):
            for index, key in enumerate(keys):
                if (clock + index) % 3 == 0:
                    wals["I1" if clock % 2 else "I2"].log_update(clock, key, "incr", (1,))
                    logged += 1
        network = Network(sim, Link(latency_us=14.0), seed=3)
        failed = DatastoreInstance(sim, network, "storeA", checkpoint_interval_us=None)
        # the checkpoint covers I1 up to clock 9 on the first key: a
        # positional cut, not another scan
        failed.last_checkpoint = Checkpoint(
            taken_at=0.0, data={keys[0]: 2}, ts={keys[0]: {"I1": 9}}
        )
        failed.fail()
        clients = [
            SimpleNamespace(
                instance_id=instance,
                wal=wal,
                per_flow_snapshot=dict,
                drop_pending_flushes=lambda snapshot: None,
                cancel_pending_flushes=lambda covered: None,
            )
            for instance, wal in wals.items()
        ]
        result = sim.run_process(
            recover_store_instance(sim, StoreCluster([failed]), failed, clients, "storeB")
        )
        assert sorted(result.shared_keys) == sorted(keys)
        assert len(built) == logged == 40
        first = [e for e in wals["I1"].updates_for(keys[0]) if e.clock <= 9]
        assert result.reexecuted_ops == logged - len(first)
        assert result.replacement.peek(keys[0]) == 2 + result.shared_keys[keys[0]].reexecuted_ops
