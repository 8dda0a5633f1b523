"""Runtime-sanitizer coverage (DESIGN.md §9.2).

The two scripted scenarios the issue demands — an ownership race with no
handover in between, and a backpressure wait cycle — must each fail
*loudly and named*, not by timeout: the race names both writers and the
key, the deadlock names every node on the cycle. Alongside those:
transfer/clone/reject paths that must NOT raise, clock monotonicity, the
suite's multi-run accounting, and the MoveMarker identity regression
(CHC004 at the Figure-4 barrier).
"""

from types import SimpleNamespace

import pytest

from repro.analysis import runtime as sanitize_runtime
from repro.analysis.runtime import maybe_sanitized, sanitized
from repro.analysis.sanitizers import (
    KEY_SEP,
    ClockMonotonicityError,
    ClockSanitizer,
    DeadlockError,
    OwnershipRaceError,
    OwnershipSanitizer,
    SanitizerSuite,
    WaitGraph,
)
from repro.core.instance import NFInstance
from repro.core.splitter import MoveMarker
from repro.simnet.engine import Channel, Simulator
from repro.simnet.rpc import RpcEndpoint, RpcGaveUp
from repro.store.protocol import BulkOwnerMove, WriteRequest

FLOW_KEY = KEY_SEP.join(("nf", "conn", "flow-1"))
SHARED_KEY = KEY_SEP.join(("nf", "table", ""))


class TestOwnershipSanitizer:
    def test_two_writers_without_handover_raise_named(self):
        san = OwnershipSanitizer()
        san.note_apply(FLOW_KEY, "nf-a-0")
        with pytest.raises(OwnershipRaceError) as excinfo:
            san.note_apply(FLOW_KEY, "nf-b-0")
        message = str(excinfo.value)
        assert "nf-a-0" in message and "nf-b-0" in message
        assert "flow-1" in message

    def test_transfer_legitimizes_the_new_writer(self):
        san = OwnershipSanitizer()
        san.note_apply(FLOW_KEY, "nf-a-0")
        san.note_transfer(FLOW_KEY, "nf-b-0", "bulk_move")
        san.note_apply(FLOW_KEY, "nf-b-0")  # must not raise
        assert san.transfers_seen == 1

    def test_shared_keys_allow_multi_writer(self):
        san = OwnershipSanitizer()
        san.note_apply(SHARED_KEY, "nf-a-0")
        san.note_apply(SHARED_KEY, "nf-b-0")  # store-serialized; legal
        assert san.writes_checked == 0

    def test_rejected_writes_are_counted_not_raised(self):
        san = OwnershipSanitizer()
        san.note_apply(FLOW_KEY, "nf-a-0")
        san.note_reject(FLOW_KEY, "nf-b-0", "nf-a-0")
        assert san.rejects_seen == 1

    def test_registered_clone_co_writes_legally(self):
        san = OwnershipSanitizer()
        san.note_clone("nf-a-0", "nf-a-0c", register=True)
        san.note_apply(FLOW_KEY, "nf-a-0")
        san.note_apply(FLOW_KEY, "nf-a-0c")  # straggler clone co-writing
        san.note_clone("nf-a-0", "nf-a-0c", register=False)
        with pytest.raises(OwnershipRaceError):
            san.note_apply(FLOW_KEY, "nf-a-0")
            san.note_apply(FLOW_KEY, "nf-a-0c")

    def test_cache_co_write_without_handover_raises_named(self):
        san = OwnershipSanitizer()
        san.note_cache_write(FLOW_KEY, "nf-a-0")
        with pytest.raises(OwnershipRaceError) as excinfo:
            san.note_cache_write(FLOW_KEY, "nf-b-0")
        message = str(excinfo.value)
        assert "cache co-write" in message
        assert "nf-a-0" in message and "nf-b-0" in message
        assert "flow-1" in message

    def test_cache_fill_after_transfer_is_legal(self):
        san = OwnershipSanitizer()
        san.note_cache_write(FLOW_KEY, "nf-a-0")
        san.note_transfer(FLOW_KEY, "nf-b-0", "bulk_move")
        san.note_cache_write(FLOW_KEY, "nf-b-0")  # must not raise
        assert san.cache_writes_checked == 2

    def test_clone_cache_fill_is_legal_and_shared_keys_unchecked(self):
        san = OwnershipSanitizer()
        san.note_clone("nf-a-0", "nf-a-0c", register=True)
        san.note_cache_write(FLOW_KEY, "nf-a-0")
        san.note_cache_write(FLOW_KEY, "nf-a-0c")  # clone warms its copy
        san.note_cache_write(SHARED_KEY, "nf-b-0")  # store-serialized
        assert san.cache_writes_checked == 2


class TestOwnershipThroughStore:
    """The scripted race of the issue: two instances write one per-flow
    key through the real datastore write path, no handover in between."""

    def test_race_raises_through_store_write(self, sim, store):
        with sanitized():
            assert store._write(WriteRequest(key=FLOW_KEY, value=1, instance="nf-a-0"))
            with pytest.raises(OwnershipRaceError) as excinfo:
                store._write(WriteRequest(key=FLOW_KEY, value=2, instance="nf-b-0"))
        message = str(excinfo.value)
        assert "nf-a-0" in message and "nf-b-0" in message

    def test_bulk_move_between_writes_is_legal(self, sim, store):
        with sanitized() as suite:
            assert store._write(WriteRequest(key=FLOW_KEY, value=1, instance="nf-a-0"))
            moved = store._handle_bulk_move(
                BulkOwnerMove(
                    keys=(FLOW_KEY,), old_instance="nf-a-0", new_instance="nf-b-0"
                )
            )
            assert moved == 1
            assert store._write(WriteRequest(key=FLOW_KEY, value=2, instance="nf-b-0"))
            report = suite.report()
        assert report["writes_checked"] == 2
        assert report["transfers_seen"] == 1

    def test_wrong_owner_write_is_rejected_not_raised(self, sim, store):
        with sanitized() as suite:
            store._owners[FLOW_KEY] = "nf-a-0"
            assert store._write(WriteRequest(key=FLOW_KEY, value=1, instance="nf-a-0"))
            assert not store._write(
                WriteRequest(key=FLOW_KEY, value=2, instance="nf-b-0")
            )
            report = suite.report()
        assert report["rejects_seen"] == 1


class TestClockSanitizer:
    def test_monotone_clocks_pass(self):
        san = ClockSanitizer()
        for clock in (1, 2, 10):
            san.note_issue(7, clock, "root-a")
        assert san.clocks_checked == 3

    def test_reissued_clock_raises_named(self):
        san = ClockSanitizer()
        san.note_issue(7, 10, "root-a")
        with pytest.raises(ClockMonotonicityError) as excinfo:
            san.note_issue(7, 10, "root-a-recovered")
        message = str(excinfo.value)
        assert "root-a-recovered" in message and "root-a" in message
        assert "10" in message

    def test_roots_are_independent(self):
        san = ClockSanitizer()
        san.note_issue(1, 10, "root-a")
        san.note_issue(2, 10, "root-b")  # different root: no conflict


class TestWaitGraph:
    def test_cycle_raises_with_every_node_named(self):
        graph = WaitGraph()
        graph.add("rx:a", "wkr:a")
        graph.add("wkr:a", "nic:b")
        with pytest.raises(DeadlockError) as excinfo:
            graph.add("nic:b", "rx:a")
        message = str(excinfo.value)
        assert "backpressure deadlock" in message
        for node in ("rx:a", "wkr:a", "nic:b"):
            assert node in message
        assert message.count("nic:b") == 2  # the cycle closes on itself

    def test_counted_edges_survive_partial_release(self):
        graph = WaitGraph()
        graph.add("a", "b")
        graph.add("a", "b")
        graph.remove("a", "b")
        with pytest.raises(DeadlockError):
            graph.add("b", "a")  # a→b still outstanding

    def test_released_edges_close_no_cycle(self):
        graph = WaitGraph()
        graph.add("a", "b")
        graph.remove("a", "b")
        graph.add("b", "a")  # must not raise
        graph.remove("missing", "edge")  # tolerant of resets mid-wait

    def test_soft_edges_never_close_a_cycle(self):
        # a timed wait is broken by its own timeout, so mutual timed
        # waits (RPC retransmission timers) are not a deadlock
        graph = WaitGraph()
        graph.add("rpc:a", "rpc:b", soft=True)
        graph.add("rpc:b", "rpc:a", soft=True)  # must not raise
        assert graph.soft_edges_added == 2
        assert graph.edges_added == 0

    def test_cycle_through_soft_edge_is_not_a_deadlock(self):
        graph = WaitGraph()
        graph.add("a", "b", soft=True)
        graph.add("b", "c")
        graph.add("c", "a")  # closes the loop only via the timed edge
        graph.remove("a", "b", soft=True)
        with pytest.raises(DeadlockError):
            graph.add("a", "b")  # the same edge, untimed: a real cycle


def _parked_emitter(sim, suite, src, dst, channel, item):
    """The exact park idiom the instance/NIC hooks use."""
    while not channel.put(item):
        suite.wait_edge(sim, src, dst)
        try:
            yield channel.space_event()
        finally:
            suite.release_edge(src, dst)


class TestDeadlockIntegration:
    def test_cross_channel_wait_cycle_fails_loudly(self, sim):
        """Two workers, each blocked emitting into the other's full queue.

        Without the sanitizer this wedges silently until a timeout; with
        it, the second park closes the cycle and raises inside the
        parking process, naming both workers.
        """
        suite = SanitizerSuite()
        queue_a = Channel(sim, name="a-in", capacity=1)
        queue_b = Channel(sim, name="b-in", capacity=1)
        assert queue_a.put("seed") and queue_b.put("seed")  # both full
        sim.process(_parked_emitter(sim, suite, "wkr:a", "wkr:b", queue_b, "x"))
        with pytest.raises(DeadlockError) as excinfo:
            sim.run_process(
                _parked_emitter(sim, suite, "wkr:b", "wkr:a", queue_a, "y")
            )
        message = str(excinfo.value)
        assert "wkr:a" in message and "wkr:b" in message

    def test_drained_wait_is_not_a_deadlock(self, sim):
        suite = SanitizerSuite()
        queue = Channel(sim, name="q", capacity=1)
        assert queue.put("seed")

        def consumer():
            yield sim.timeout(5.0)
            item = yield queue.get()
            assert item == "seed"

        sim.process(consumer())
        sim.run_process(_parked_emitter(sim, suite, "wkr:p", "wkr:c", queue, "x"))
        assert suite.waits.edges_added == 1
        assert suite.waits._edges == {}  # released on wake


def _swallow_gaveup(endpoint, dst, **kwargs):
    try:
        yield from endpoint.call(dst, "ping", **kwargs)
    except RpcGaveUp:
        pass


class TestRpcWaitEdges:
    """Timed RPC waits are soft wait-graph edges (they cannot wedge);
    only an untimed wait is a hard edge that can close a real cycle."""

    def test_mutual_timed_calls_are_soft_not_deadlock(self, sim, network):
        a = RpcEndpoint(sim, network, "a")
        b = RpcEndpoint(sim, network, "b")
        with sanitized() as suite:
            # neither endpoint serves requests: both calls park on each
            # other with retransmission timers, then give up — a cycle in
            # shape, broken by its own timeouts
            sim.process(_swallow_gaveup(a, "b", timeout_us=10.0, max_retries=1))
            sim.process(_swallow_gaveup(b, "a", timeout_us=10.0, max_retries=1))
            sim.run(until=1_000.0)
            report = suite.report()
        assert report["wait_soft_edges_added"] >= 2
        assert report["wait_edges_added"] == 0

    def test_mutual_untimed_calls_close_a_hard_cycle(self, sim, network):
        a = RpcEndpoint(sim, network, "a")
        b = RpcEndpoint(sim, network, "b")
        with sanitized():
            sim.process(_swallow_gaveup(a, "b"))
            with pytest.raises(DeadlockError) as excinfo:
                sim.run_process(_swallow_gaveup(b, "a"))
        message = str(excinfo.value)
        assert "rpc:a" in message and "rpc:b" in message


class TestSuiteLifecycle:
    def test_sanitized_installs_and_uninstalls(self):
        assert sanitize_runtime.ACTIVE is None
        with sanitized() as suite:
            assert sanitize_runtime.ACTIVE is suite
        assert sanitize_runtime.ACTIVE is None

    def test_maybe_sanitized_follows_its_flag(self):
        with maybe_sanitized(False) as suite:
            assert suite is None and sanitize_runtime.ACTIVE is None
        with maybe_sanitized(True) as suite:
            assert isinstance(suite, SanitizerSuite)
            assert sanitize_runtime.ACTIVE is suite
        assert sanitize_runtime.ACTIVE is None

    def test_counters_accumulate_across_runs(self):
        suite = SanitizerSuite()
        sim_a, sim_b = Simulator(), Simulator()
        suite.note_store_apply(sim_a, FLOW_KEY, "nf-a-0")
        suite.note_store_apply(sim_b, FLOW_KEY, "nf-b-0")  # new sim: reset, no race
        report = suite.report()
        assert report["writes_checked"] == 2
        assert report["runs_observed"] == 2

    def test_campaign_run_is_sanitizer_clean(self):
        from repro.chaos.campaign import SCENARIOS, run_scenario

        with sanitized() as suite:
            outcome = run_scenario(SCENARIOS["nf-crash"], seed=0)
            report = suite.report()
        assert outcome.ok, outcome.violations
        assert report["writes_checked"] > 0
        assert report["clocks_checked"] > 0


class TestMarkerIdentity:
    """Regression for the id(marker) barrier bug (chclint CHC004)."""

    def test_equal_markers_have_distinct_identities(self):
        make = lambda: MoveMarker(  # noqa: E731
            scope_keys=frozenset({("10.0.0.1",)}),
            fields=("src_ip",),
            old_instance="nf-a-0",
            new_instance="nf-a-1",
            move_id=1,
        )
        first, second = make(), make()
        assert first == second  # value-identical: equality ignores identity
        assert first.marker_id != second.marker_id
        assert second.marker_id > first.marker_id  # process-monotonic

    def test_barrier_counts_key_on_marker_id_not_id(self):
        """Two value-equal markers must keep separate worker barriers."""
        make = lambda: MoveMarker(  # noqa: E731
            scope_keys=frozenset({("10.0.0.1",)}),
            fields=("src_ip",),
            old_instance="other",
            new_instance="nf-a-1",
            move_id=1,
        )
        first, second = make(), make()
        stub = SimpleNamespace(n_workers=2, _barrier_counts={}, instance_id="me")
        list(NFInstance._on_last_marker(stub, first))
        list(NFInstance._on_last_marker(stub, second))
        # With id(marker) keys these could alias after GC; with marker_id
        # they are two distinct, half-complete barriers.
        assert stub._barrier_counts == {
            first.marker_id: 1,
            second.marker_id: 1,
        }
        list(NFInstance._on_last_marker(stub, first))  # barrier completes
        assert first.marker_id not in stub._barrier_counts
        assert second.marker_id in stub._barrier_counts
