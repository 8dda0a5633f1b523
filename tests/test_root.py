"""Unit tests for the root: clocks, logging, the XOR delete protocol, replay."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.root import DeleteRequest, LogEntry, Root
from repro.simnet.engine import Simulator
from repro.simnet.network import Envelope, Network
from repro.store.protocol import BatchedCommitSignal, CommitSignal
from tests.conftest import make_packet


@pytest.fixture
def forwarded():
    return []


@pytest.fixture
def root(sim, network, store, forwarded):
    return Root(
        sim,
        network,
        "root0",
        forward=forwarded.append,
        store_endpoint="store0",
        persist_every=100,
        local_log_cost_us=1.0,
        prune_grace_us=0.0,
    )


class TestStampingAndLogging:
    def test_clocks_unique_and_increasing(self, sim, root, forwarded):
        for _ in range(5):
            root.inject(make_packet())
        sim.run()
        clocks = [p.clock for p in forwarded]
        assert clocks == sorted(clocks)
        assert len(set(clocks)) == 5
        assert set(root.log) == set(clocks)

    def test_log_entry_holds_copy(self, sim, root, forwarded):
        root.inject(make_packet())
        sim.run()
        packet = forwarded[0]
        entry = root.log[packet.clock]
        assert entry.packet is not packet
        assert entry.packet.pkt_id == packet.pkt_id

    def test_local_log_cost_applied(self, sim, root, forwarded):
        root.inject(make_packet())
        sim.run()
        assert sim.now >= 1.0

    def test_clock_persisted_every_n(self, sim, root, store, forwarded):
        for _ in range(200):
            root.inject(make_packet())
        sim.run()
        persisted = store.peek(Root.recovered_clock_key(0))
        assert persisted == 200

    def test_threshold_drops(self, sim, network, store):
        drops = []
        small = Root(
            sim, network, "tiny-root", forward=drops.append,
            store_endpoint="store0", log_threshold=3, local_log_cost_us=0.0,
        )
        for _ in range(10):
            small.inject(make_packet())
        sim.run()
        # nothing completes, so the log pins at 3 and the rest drop
        assert len(small.log) == 3
        assert small.stats.dropped_at_threshold == 7


class TestPruneAggregation:
    def test_one_timer_and_one_message_per_grace_window(self, sim, network, store):
        """A clock waits one to two grace periods; each fire drains a whole
        window in one batched message, in delete order (the drain is a
        ``popleft`` per clock — it was ``list.pop(0)``, quadratic at the
        ~12.5k clocks a chain4 window holds)."""
        from repro.store.protocol import BatchedPruneRequest, PruneRequest

        root = Root(
            sim, network, "root-p", forward=lambda packet: None,
            store_endpoint="store0", prune_grace_us=100.0,
        )
        sent = []
        root.endpoint.send = lambda dst, message: sent.append((sim.now, dst, message))
        for clock in range(1, 5001):
            sim.schedule(clock * 0.01, root._queue_prune, clock)  # t = 0.01 .. 50
        sim.schedule(130.0, root._queue_prune, 9000)  # lands in the second window
        sim.schedule(260.0, root._queue_prune, 9001)
        sim.run()
        assert sent == [
            # the first fire finds only clock 1 past its grace period ...
            (100.01, "store0", PruneRequest(clock=1)),
            # ... the second drains the rest of that window in one message
            (200.01, "store0", BatchedPruneRequest(tuple(range(2, 5001)))),
            (300.01, "store0", PruneRequest(clock=9000)),
            (400.01, "store0", PruneRequest(clock=9001)),
        ]
        assert not root._prune_queue and not root._prune_timer_armed


class TestDeleteProtocol:
    def test_delete_without_updates(self, sim, root, forwarded):
        root.inject(make_packet())
        sim.run()
        clock = forwarded[0].clock
        root.report_done(clock, vector=0, generation=0)
        sim.run()
        assert clock not in root.log
        assert root.stats.deleted == 1

    def test_delete_waits_for_commit_signal(self, sim, root, forwarded):
        root.inject(make_packet())
        sim.run()
        clock = forwarded[0].clock
        tag = 0x00050007
        # the chain reports the packet done with one uncommitted update
        root.report_done(clock, vector=tag, generation=0)
        assert clock in root.log  # vector mismatch: not deletable yet
        root.on_commit_signal(clock, tag)
        assert clock not in root.log  # now both sides agree

    def test_commit_before_delete_also_works(self, sim, root, forwarded):
        root.inject(make_packet())
        sim.run()
        clock = forwarded[0].clock
        tag = 0x00010001
        root.on_commit_signal(clock, tag)
        assert clock in root.log
        root.report_done(clock, vector=tag, generation=0)
        assert clock not in root.log

    def test_multi_copy_accounting(self, sim, root, forwarded):
        root.inject(make_packet())
        sim.run()
        clock = forwarded[0].clock
        root.add_outstanding(clock, 1, generation=0)  # mirror branch
        root.report_done(clock, vector=0, generation=0)
        assert clock in root.log  # one copy still in flight
        root.report_done(clock, vector=0, generation=0)
        assert clock not in root.log

    def test_old_generation_can_still_complete_after_replay(self, sim, root, forwarded):
        # the original pass may finish after a replay was launched; if its
        # vector matches the commits, the entry is deletable (the missing
        # commit was regenerated by the replay pass)
        root.inject(make_packet())
        sim.run()
        clock = forwarded[0].clock
        sim.run_process(root.replay("x", pace_us=0.0))
        assert root.log[clock].generation == 1
        root.report_done(clock, vector=0, generation=0)  # original completes
        assert clock not in root.log

    def test_mismatching_old_generation_does_not_delete(self, sim, root, forwarded):
        root.inject(make_packet())
        sim.run()
        clock = forwarded[0].clock
        sim.run_process(root.replay("x", pace_us=0.0))
        root.report_done(clock, vector=7, generation=0)  # uncommitted update
        assert clock in root.log
        assert root.log[clock].outstanding[1] == 1

    def test_delete_request_via_network(self, sim, network, root, forwarded):
        from repro.simnet.rpc import RpcEndpoint

        root.inject(make_packet())
        sim.run()
        clock = forwarded[0].clock
        nf = RpcEndpoint(sim, network, "last-nf")
        nf.send("root0", DeleteRequest(clock=clock, vector=0, generation=0))
        sim.run()
        assert clock not in root.log

    def test_sync_delete_request_acked(self, sim, network, root, forwarded):
        from repro.simnet.rpc import RpcEndpoint

        root.inject(make_packet())
        sim.run()
        clock = forwarded[0].clock
        nf = RpcEndpoint(sim, network, "last-nf")

        def body():
            ok = yield nf.call_event("root0", DeleteRequest(clock=clock, vector=0))
            return ok

        assert sim.run_process(body()) is True
        assert clock not in root.log

    def test_on_deleted_callbacks_fire(self, sim, root, forwarded):
        deleted = []
        root.on_deleted.append(deleted.append)
        root.inject(make_packet())
        sim.run()
        clock = forwarded[0].clock
        root.report_done(clock, 0, 0)
        assert deleted == [clock]


class TestReplay:
    def _inject(self, sim, root, n):
        for _ in range(n):
            root.inject(make_packet())
        sim.run()

    def test_replay_marks_and_targets(self, sim, root, forwarded):
        self._inject(sim, root, 3)
        forwarded.clear()
        sim.run_process(root.replay("clone-7", pace_us=0.1))
        assert len(forwarded) == 3
        assert all(p.replayed for p in forwarded)
        assert all(p.replay_target == "clone-7" for p in forwarded)
        assert forwarded[-1].replay_end
        assert not forwarded[0].replay_end
        assert all(p.generation == 1 for p in forwarded)

    def test_replay_resets_accounting(self, sim, root, forwarded):
        self._inject(sim, root, 1)
        clock = forwarded[0].clock
        root.add_outstanding(clock, 3, generation=0)
        sim.run_process(root.replay("x", pace_us=0.0))
        entry = root.log[clock]
        assert entry.outstanding[1] == 1
        assert entry.generation == 1
        # a new-generation report completes the entry
        root.report_done(clock, 0, generation=1)
        assert clock not in root.log

    def test_replay_in_clock_order(self, sim, root, forwarded):
        self._inject(sim, root, 10)
        forwarded.clear()
        sim.run_process(root.replay("t", pace_us=0.0))
        clocks = [p.clock for p in forwarded]
        assert clocks == sorted(clocks)

    def test_empty_replay(self, sim, root):
        replayed = sim.run_process(root.replay("t"))
        assert replayed == []


class TestFailure:
    def test_local_log_dies_with_root(self, sim, root, forwarded):
        root.inject(make_packet())
        sim.run()
        assert root.log
        root.fail()
        assert root.log == {}
        assert not root.alive

    def test_store_kept_log_survives(self, sim, network, store):
        kept = Root(
            sim, network, "root-s", forward=lambda p: None,
            store_endpoint="store0", log_in_store=True,
        )
        kept.inject(make_packet())
        sim.run()
        kept.fail()
        assert len(kept.log) == 1


# ---------------------------------------------------------------------------
# the commit fold: a batch of signals is the same signals one by one
# ---------------------------------------------------------------------------


def reference_complete(entry):
    """``LogEntry.complete`` as a generator over generations (the form it
    had before it became a plain loop)."""
    return any(
        count == 0
        and (
            entry.reported[gen] == entry.committed_vector
            or (entry.restored and gen > 0)
            or entry.vector_unreliable
        )
        for gen, count in enumerate(entry.outstanding)
    )


TAGS = [0, 0x1, 0x2, 0x3, 0x00010001]
log_entries = st.builds(
    lambda generations, counts, reported, committed, restored, unreliable: dict(
        outstanding=counts[:generations],  # generation-indexed rows
        reported=reported[:generations],
        committed_vector=committed,
        restored=restored,
        vector_unreliable=unreliable,
    ),
    generations=st.integers(1, 3),  # the original pass plus up to two replays
    counts=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    reported=st.lists(st.sampled_from(TAGS), min_size=3, max_size=3),
    committed=st.sampled_from(TAGS),
    restored=st.booleans(),
    unreliable=st.booleans(),
)


def entry_fields(entry):
    """A log entry's fields, by value (a slotted ``LogEntry`` compares by
    identity)."""
    return {name: getattr(entry, name) for name in LogEntry.__slots__}


def make_entry(fields, packet):
    return LogEntry(
        packet=packet, dst_instance="", logged_at=0.0, generation=len(fields["outstanding"]) - 1,
        **copy.deepcopy(fields),
    )


class TestCommitFold:
    @settings(max_examples=300, deadline=None)
    @given(fields=log_entries)
    def test_complete_matches_the_generator_form(self, fields):
        entry = make_entry(fields, make_packet())
        assert entry.complete == reference_complete(entry)

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.dictionaries(st.integers(1, 6), log_entries, max_size=6),
        signals=st.lists(
            st.tuples(st.integers(0, 7), st.sampled_from(TAGS[1:])), min_size=1, max_size=12
        ),
    )
    def test_a_batch_folds_like_its_signals_one_by_one(self, entries, signals):
        packets = {clock: make_packet(clock=clock) for clock in entries}

        def root_after(messages):
            sim = Simulator()
            root = Root(sim, Network(sim), "root0", forward=lambda packet: None,
                        prune_grace_us=5.0, store_endpoints_for_prune=["store0"])
            deleted = []
            root.on_deleted.append(deleted.append)
            for clock, fields in entries.items():
                root.log[clock] = make_entry(fields, packets[clock])
            for message in messages:
                root._on_message(Envelope("store0", "root0", message))
            log = {clock: entry_fields(entry) for clock, entry in root.log.items()}
            return root.stats, log, deleted, list(root._prune_queue)

        one_by_one = root_after([CommitSignal(clock, tag) for clock, tag in signals])
        batched = root_after([BatchedCommitSignal(tuple(signals))])
        assert batched == one_by_one
