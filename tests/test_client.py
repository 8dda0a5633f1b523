"""Unit tests for the client-side library (Table 1 strategies, §4.3)."""


from hypothesis import given, settings, strategies as st

from repro.simnet.engine import Simulator
from repro.simnet.network import Link, Network
from repro.store.client import StoreClient
from repro.store.cluster import StoreCluster
from repro.store.datastore import DatastoreInstance
from repro.store.keys import StateKey


def drive(sim, generator):
    return sim.run_process(generator)


FLOW = ("10.0.0.1", "52.0.0.1", 1234, 80, 6)


class TestNonBlockingStrategy:
    def test_update_waits_for_ack_when_configured(self, sim, client):
        def body():
            start = sim.now
            yield from client.update("counter", None, "incr", 1)
            return sim.now - start

        elapsed = drive(sim, body())
        assert elapsed >= 28.0  # one RTT: the ACK was awaited
        assert client.stats.nonblocking_ops == 1

    def test_update_returns_immediately_without_ack_wait(self, sim, client_factory, store):
        client = client_factory("nf-na", wait_for_acks=False)

        def body():
            start = sim.now
            yield from client.update("counter", None, "incr", 1)
            return sim.now - start

        elapsed = drive(sim, body())
        assert elapsed == 0.0
        sim.run()
        assert store.peek(client._key("counter", None)) == 1

    def test_need_result_forces_blocking(self, sim, client, store):
        def body():
            value = yield from client.update("counter", None, "incr", 5, need_result=True)
            return value

        assert drive(sim, body()) == 5
        assert client.stats.blocking_ops == 1


class TestPerFlowCache:
    def test_cached_update_is_local_and_flushed(self, sim, client, store):
        def body():
            # first touch: cold cache -> blocking op seeds it from the store
            first = yield from client.update("flow_state", FLOW, "incr", 1)
            start = sim.now
            second = yield from client.update("flow_state", FLOW, "incr", 1)
            return (first, second, sim.now - start)

        first, second, elapsed = drive(sim, body())
        assert (first, second) == (1, 2)
        assert elapsed == 0.0  # warm cache: local apply; flush asynchronous
        sim.run()
        storage_key = client._key("flow_state", FLOW)
        assert store.peek(storage_key) == 2
        assert store.owner_of(storage_key) == "nf-0"  # claimed on first write

    def test_cold_update_seeds_cache_from_store(self, sim, client, client_factory, store):
        # live state exists in the store (e.g. before a failover) ...
        def seed():
            yield from client.update("flow_state", FLOW, "incr", 5)
            yield client.ack_barrier()

        drive(sim, seed())
        store._owners.clear()
        # ... a fresh instance's first *update* must not restart from the
        # initial value: it executes at the store and seeds its cache
        other = client_factory("nf-cold")

        def cold():
            value = yield from other.update("flow_state", FLOW, "incr", 1)
            cached = yield from other.read("flow_state", FLOW)
            return value, cached

        value, cached = drive(sim, cold())
        assert value == 6
        assert cached == 6
        assert other.stats.cached_reads == 1

    def test_cached_read_hits_locally(self, sim, client):
        def body():
            yield from client.update("flow_state", FLOW, "incr", 1)
            value = yield from client.read("flow_state", FLOW)
            return value

        assert drive(sim, body()) == 1
        assert client.stats.cached_reads == 1
        assert client.stats.store_reads == 0

    def test_cache_miss_fetches_from_store(self, sim, client, client_factory, store):
        def writer():
            yield from client.update("flow_state", FLOW, "incr", 7)
            yield client.ack_barrier()

        drive(sim, writer())
        # a different instance (e.g. after takeover) must fetch from store
        other = client_factory("nf-1")
        store._owners.clear()  # simulate released ownership

        def reader():
            value = yield from other.read("flow_state", FLOW)
            return value

        assert drive(sim, reader()) == 7
        assert other.stats.store_reads == 1

    def test_ack_barrier_fences_flushes(self, sim, client, store):
        def body():
            for _ in range(10):
                yield from client.update("flow_state", FLOW, "incr", 1)
            yield client.ack_barrier()
            return store.peek(client._key("flow_state", FLOW))

        assert drive(sim, body()) == 10


class TestReadHeavyCache:
    def test_first_read_registers_watch_then_cached(self, sim, client):
        def body():
            first = yield from client.read("config", None)
            cached = yield from client.read("config", None)
            return (first, cached)

        drive(sim, body())
        assert client.stats.store_reads == 1
        assert client.stats.cached_reads == 1

    def test_update_propagates_to_peer_caches(self, sim, client, client_factory):
        peer = client_factory("nf-1")

        def warm(c):
            def body():
                value = yield from c.read("config", None)
                return value

            return body

        drive(sim, warm(client)())
        drive(sim, warm(peer)())

        def update():
            value = yield from client.update("config", None, "set", {"limit": 9})
            return value

        assert drive(sim, update()) == {"limit": 9}
        sim.run()  # callbacks propagate

        def peer_read():
            value = yield from peer.read("config", None)
            return value

        assert drive(sim, peer_read()) == {"limit": 9}
        assert peer.stats.callbacks_received >= 1
        # the peer answered from its refreshed cache, not the store
        assert peer.stats.store_reads == 1


class TestSplitAware:
    def test_exclusive_updates_are_local(self, sim, client):
        client._exclusive["shared"] = True

        def body():
            yield from client.update("shared", ("10.0.0.1",), "incr", 1)  # cold
            start = sim.now
            yield from client.update("shared", ("10.0.0.1",), "incr", 1)  # warm
            return sim.now - start

        assert drive(sim, body()) == 0.0

    def test_non_exclusive_updates_block(self, sim, client):
        client._exclusive["shared"] = False

        def body():
            start = sim.now
            value = yield from client.update("shared", ("10.0.0.1",), "incr", 1)
            return (value, sim.now - start)

        value, elapsed = drive(sim, body())
        assert value == 1
        assert elapsed >= 28.0

    def test_losing_exclusivity_flushes_and_drops_cache(self, sim, client, store):
        client._exclusive["shared"] = True

        def body():
            yield from client.update("shared", ("10.0.0.1",), "incr", 3)
            yield from client.set_exclusive("shared", False)
            # after the flush, the store is authoritative and consistent
            return store.peek(client._key("shared", ("10.0.0.1",)))

        assert drive(sim, body()) == 3
        assert not any(k.startswith("nf\x1fshared") for k in client._cache)


class TestCachingDisabled:
    def test_eo_model_reads_and_writes_through(self, sim, client_factory):
        client = client_factory("nf-eo", caching_enabled=False)

        def body():
            start = sim.now
            yield from client.update("flow_state", FLOW, "incr", 1)
            after_update = sim.now - start
            value = yield from client.read("flow_state", FLOW)
            return (after_update, value)

        elapsed, value = drive(sim, body())
        assert elapsed >= 28.0  # even per-flow state costs an RTT
        assert value == 1
        assert client.stats.cached_reads == 0


class TestWalAndVector:
    def test_cross_flow_updates_are_wal_logged(self, sim, client):
        from tests.conftest import make_packet

        packet = make_packet(clock=42)
        client.begin_packet(packet)

        def body():
            yield from client.update("counter", None, "incr", 1)
            yield from client.update("shared", ("10.0.0.1",), "incr", 1, need_result=True)

        drive(sim, body())
        assert len(client.wal.updates) == 2
        assert all(entry.clock == 42 for entry in client.wal.updates)

    def test_per_flow_updates_not_wal_logged(self, sim, client):
        def body():
            yield from client.update("flow_state", FLOW, "incr", 1)

        drive(sim, body())
        assert client.wal.updates == []

    def test_reads_logged_with_ts(self, sim, client):
        from tests.conftest import make_packet

        client.begin_packet(make_packet(clock=7))

        def body():
            yield from client.update("counter", None, "incr", 1)
            yield client.ack_barrier()
            yield from client.read("counter", None)

        drive(sim, body())
        # NON_BLOCKING objects read through to the store and log the read
        assert len(client.wal.reads) == 1
        assert client.wal.reads[0].ts == {"nf-0": 7}

    def test_packet_vector_accumulates_tags(self, sim, client_factory):
        from tests.conftest import make_packet

        client = client_factory(
            "nf-v", vector_tags={"counter": 0x00010002, "shared": 0x00010003}
        )
        packet = make_packet(clock=5)
        client.begin_packet(packet)

        def body():
            yield from client.update("counter", None, "incr", 1)
            yield from client.update("shared", ("10.0.0.1",), "incr", 1, need_result=True)

        drive(sim, body())
        assert packet.bitvector == 0x00010002 ^ 0x00010003

    def test_seq_increments_per_key_per_packet(self, sim, client):
        from tests.conftest import make_packet

        client.begin_packet(make_packet(clock=3))

        def body():
            yield from client.update("counter", None, "incr", 1)
            yield from client.update("counter", None, "incr", 1)

        drive(sim, body())
        seqs = [entry.seq for entry in client.wal.updates]
        assert seqs == [0, 1]
        client.begin_packet(make_packet(clock=4))
        drive(sim, body())
        assert [entry.seq for entry in client.wal.updates[2:]] == [0, 1]


class TestRetransmission:
    def test_unacked_op_retransmitted_on_lossy_link(self, sim, network, client_factory, store):
        network.connect("nf-rt", "store0", Link(latency_us=14.0, loss=0.7))
        client = client_factory(
            "nf-rt", wait_for_acks=False, retransmit_timeout_us=100.0
        )

        from tests.conftest import make_packet

        client.begin_packet(make_packet(clock=11))

        def body():
            yield from client.update("counter", None, "incr", 1)
            # generous window: retransmissions back off exponentially
            # (FLUSH_BACKOFF), so attempts spread out as they accumulate
            yield sim.timeout(60_000)

        drive(sim, body())
        # retransmitted until delivered, applied exactly once (the store
        # dedups on the (key, clock, seq) identity)
        assert store.peek(client._key("counter", None)) == 1
        assert client.stats.retransmissions >= 1


class TestBulkRelease:
    def test_release_keys_bulk_moves_ownership(self, sim, client, client_factory, store):
        def seed():
            yield from client.update("flow_state", FLOW, "incr", 1)
            yield client.ack_barrier()

        drive(sim, seed())
        storage_key = client._key("flow_state", FLOW)

        def release():
            moved = yield from client.release_keys_bulk(
                [storage_key], "nf-1", notify_key="rv"
            )
            return moved

        assert drive(sim, release()) == 1
        assert store.owner_of(storage_key) == "nf-1"
        assert storage_key not in client.owned_items()
        assert storage_key not in client._cache


# Flow keys are projections of packet headers: strings and ints (never
# bools or floats, whose equality with ints the table could not tell apart).
flow_key_fields = st.one_of(
    st.integers(-(1 << 40), 1 << 40),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
flow_keys = st.one_of(st.none(), st.lists(flow_key_fields, max_size=6).map(tuple))


class TestKeyTable:
    """`_key` interns `StateKey(...).storage_key()` per client."""

    @settings(max_examples=200, deadline=None)
    @given(
        refs=st.lists(
            st.tuples(st.sampled_from(["flow_state", "shared", "x|y"]), flow_keys),
            min_size=1,
            max_size=12,
        )
    )
    def test_interned_string_is_the_state_keys(self, refs):
        sim = Simulator()
        network = Network(sim, Link(latency_us=14.0), seed=7)
        cluster = StoreCluster([DatastoreInstance(sim, network, "store0")])
        client = StoreClient(sim, network, cluster, "v\x1fw", "nf-0", specs={})
        for _pass in range(2):  # second pass: every lookup is a table hit
            for obj_name, flow_key in refs:
                expected = StateKey("v\x1fw", obj_name, flow_key).storage_key()
                assert client._key(obj_name, flow_key) == expected
        # one entry per distinct reference: nothing merged, nothing dropped
        assert set(client._keys) == set(refs)

    def test_int_and_str_fields_share_a_string_not_an_entry(self, client):
        assert client._key("shared", (80,)) == client._key("shared", ("80",))
        assert {("shared", (80,)), ("shared", ("80",))} <= set(client._keys)

    def test_table_is_per_client(self, client_factory):
        first, second = client_factory("nf-a"), client_factory("nf-b", vertex="other")
        first._key("flow_state", FLOW)
        assert second._keys == {}
        assert second._key("flow_state", FLOW) != first._key("flow_state", FLOW)

    def test_fail_empties_the_table(self, client):
        client._key("flow_state", FLOW)
        client._key("counter", None)
        client.fail()
        assert client._keys == {}

    def test_table_shrinks_on_ownership_release(self, sim, client):
        other = ("10.0.0.2", "52.0.0.1", 99, 80, 6)

        def body():
            yield from client.update("flow_state", FLOW, "incr", 1)
            yield from client.update("flow_state", other, "incr", 1)
            yield client.ack_barrier()
            assert {("flow_state", FLOW), ("flow_state", other)} <= set(client._keys)
            yield from client.release_keys_bulk(
                [client._key("flow_state", FLOW)], "nf-1", notify_key="rv"
            )
            assert ("flow_state", FLOW) not in client._keys
            yield from client.disassociate("flow_state", other)

        drive(sim, body())
        assert [ref for ref in client._keys if ref[0] == "flow_state"] == []

    def test_cap_clears_wholesale(self, client, monkeypatch):
        import repro.store.client as client_module

        monkeypatch.setattr(client_module, "KEY_TABLE_CAP", 8)
        for port in range(20):
            client._key("flow_state", ("10.0.0.1", port))
            assert len(client._keys) <= 8
        assert client._key("flow_state", ("10.0.0.1", 19)) == StateKey(
            "nf", "flow_state", ("10.0.0.1", 19)
        ).storage_key()


class TestCommit:
    """`StoreClient.commit` at the client level (the NF-by-NF comparison
    against the old replay lives in tests/test_fastpath.py)."""

    def _journal(self, client, script):
        from repro.core.fastpath import ShadowState

        shadow = ShadowState(client)
        for _ in script(shadow):  # a generator over the shadow, like an NF body
            raise AssertionError("a local state access yielded to the engine")
        return shadow

    def test_sibling_worker_closed_the_shared_batch(self, sim, client_factory, store):
        """Worker A parks mid-batch on downstream backpressure; worker B of
        the same instance (same client) flushes the batch they share. A's
        remaining ops must still reach the store exactly once, ACK-tracked."""
        from tests.conftest import make_packet

        client = client_factory("nf-w", wait_for_acks=False, retransmit_timeout_us=500.0)
        first, second = make_packet(clock=21), make_packet(sport=4321, clock=22)
        flow_a, flow_b = ("a",), ("b",)

        def ops(flow):
            def script(shadow):
                yield from shadow.update("flow_state", flow, "set", 5)
                yield from shadow.update("counter", None, "incr", 1)

            return script

        client.batch_begin()  # worker A opens the batch ...
        shadow = self._journal(client, ops(flow_a))
        client.commit(first, shadow.journal, shadow.cached_reads)
        assert len(client._batch) == 2
        client.batch_begin()  # ... worker B joins it (no-op) and flushes it
        assert len(client.batch_flush()) == 1
        assert client._batch is None
        # A resumes: no batch is open any more
        shadow = self._journal(client, ops(flow_b))
        client.commit(second, shadow.journal, shadow.cached_reads)
        assert client._batch is None
        assert len(client._pending_acks) == 3  # one batch + two direct sends
        assert client.batch_flush() == []  # A's own end-of-batch flush: nothing left
        sim.run(until=400.0)
        assert client._pending_acks == {}  # every send was ACKed
        assert store.peek(client._key("flow_state", flow_a)) == 5
        assert store.peek(client._key("flow_state", flow_b)) == 5
        assert store.peek(client._key("counter", None)) == 2
        assert store.stats.ops_applied == 4 and store.stats.ops_emulated == 0
        assert client.stats.retransmissions == 0
        assert client.stats.local_ops == 2 and client.stats.nonblocking_ops == 2

    def test_cache_hits_are_counted_at_commit(self, client):
        from tests.conftest import make_packet

        client._cache[client._key("flow_state", FLOW)] = 7
        shadow = self._journal(client, lambda s: s.read("flow_state", FLOW))
        assert shadow.cached_reads == 1 and client.stats.cached_reads == 0
        client.commit(make_packet(clock=3), shadow.journal, shadow.cached_reads)
        assert client.stats.cached_reads == 1

    def test_waiting_for_acks_declines_offloaded_updates(self, client):
        """EO / EO+C serialize every op on its ACK; a synchronous commit
        cannot wait, so the shadow sends such updates down the general path."""
        import pytest
        from repro.core.nf_api import NotFast

        assert client.wait_for_acks
        with pytest.raises(NotFast):
            self._journal(client, lambda s: s.update("counter", None, "incr", 1))
