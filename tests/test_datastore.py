"""Unit tests for the datastore instance (§4.3, §5.3, §5.4)."""

import pytest

from repro.simnet.rpc import RpcEndpoint
from repro.store.protocol import (
    BulkOwnerMove,
    CloneRegistration,
    LockReadRequest,
    NonDetRequest,
    OpRequest,
    OwnerRequest,
    PruneRequest,
    ReadRequest,
    SnapshotRequest,
    TakeoverRequest,
    WatchRequest,
    WriteRequest,
    WriteUnlockRequest,
)


@pytest.fixture
def caller(sim, network):
    return RpcEndpoint(sim, network, "nf-0")


def call(sim, caller, payload, dst="store0"):
    """Drive one RPC to completion and return its value."""
    def body():
        value = yield caller.call_event(dst, payload)
        return value

    return sim.run_process(body())


class TestOperations:
    def test_blocking_op_returns_result(self, sim, store, caller):
        result = call(sim, caller, OpRequest(key="k", op="incr", args=(5,), instance="nf-0"))
        assert result.value == 5
        assert store.peek("k") == 5

    def test_ops_serialize_in_arrival_order(self, sim, store, caller):
        for _ in range(3):
            call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="nf-0"))
        assert store.peek("k") == 3

    def test_nonblocking_op_acks_and_applies(self, sim, store, caller):
        result = call(
            sim,
            caller,
            OpRequest(key="k", op="incr", args=(2,), instance="nf-0", blocking=False),
        )
        assert result.value is None  # ACK carries no result
        assert store.peek("k") == 2

    def test_read_sees_all_prior_nonblocking_updates(self, sim, store, caller):
        def body():
            acks = [
                caller.call_event(
                    "store0",
                    OpRequest(key="k", op="incr", args=(1,), instance="nf-0", blocking=False),
                )
                for _ in range(5)
            ]
            read = yield caller.call_event("store0", ReadRequest(key="k"))
            return read

        read = sim.run_process(body())
        assert read.value == 5  # the key's thread is FIFO: updates precede the read

    def test_write_request(self, sim, store, caller):
        assert call(sim, caller, WriteRequest(key="k", value=[1, 2])) is True
        assert store.peek("k") == [1, 2]


class TestDuplicateSuppression:
    """§5.3: updates are identified by (key, clock, seq) and emulated."""

    def test_duplicate_update_emulated(self, sim, store, caller):
        op = OpRequest(key="k", op="incr", args=(1,), instance="a", clock=9, seq=0)
        first = call(sim, caller, op)
        duplicate = call(
            sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="b", clock=9, seq=0)
        )
        assert first.value == 1
        assert duplicate.value == 1
        assert duplicate.emulated
        assert store.peek("k") == 1  # applied exactly once

    def test_distinct_seq_same_clock_applies_twice(self, sim, store, caller):
        call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="a", clock=9, seq=0))
        call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="a", clock=9, seq=1))
        assert store.peek("k") == 2

    def test_emulation_returns_value_by_seq(self, sim, store, caller):
        call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="a", clock=3, seq=0))
        call(sim, caller, OpRequest(key="k", op="incr", args=(10,), instance="a", clock=3, seq=1))
        replay0 = call(
            sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="c", clock=3, seq=0)
        )
        replay1 = call(
            sim, caller, OpRequest(key="k", op="incr", args=(10,), instance="c", clock=3, seq=1)
        )
        assert replay0.value == 1 and replay0.emulated
        assert replay1.value == 11 and replay1.emulated
        assert store.peek("k") == 11

    def test_clock_zero_never_logged(self, sim, store, caller):
        call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="a", clock=0))
        call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="a", clock=0))
        assert store.peek("k") == 2
        assert store.logged_clocks("k") == []

    def test_prune_drops_log_but_remembers_clock(self, sim, store, caller):
        call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="a", clock=5))
        assert store.logged_clocks("k") == [5]
        caller.send("store0", PruneRequest((5,)))
        sim.run()
        # the per-op duplicate-suppression log is reclaimed...
        assert store.logged_clocks("k") == []
        # ...but a straggler copy with the pruned clock is still emulated,
        # not re-applied: the prune fired because the root saw the full
        # commit vector, so every update with this clock already committed.
        # (A retransmission can be in flight when the prune lands — real
        # sockets queue frames for far longer than the prune grace period.)
        straggler = call(
            sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="a", clock=5)
        )
        assert straggler.emulated
        assert store.peek("k") == 1
        # a genuinely new packet (fresh clock) still applies
        call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="a", clock=6))
        assert store.peek("k") == 2


class TestOwnership:
    def test_claim_on_first_write(self, sim, store, caller):
        call(
            sim,
            caller,
            OpRequest(key="pf", op="set", args=(1,), instance="nf-0", claim_owner=True),
        )
        assert store.owner_of("pf") == "nf-0"

    def test_foreign_update_rejected(self, sim, store, caller):
        call(sim, caller, OwnerRequest(key="pf", instance="owner", action="associate"))
        result = call(sim, caller, OpRequest(key="pf", op="incr", args=(1,), instance="intruder"))
        assert result.value is None
        assert store.peek("pf") is None
        assert store.stats.rejected == 1

    def test_clone_may_update_owned_state(self, sim, store, caller):
        call(sim, caller, OwnerRequest(key="pf", instance="orig", action="associate"))
        call(sim, caller, CloneRegistration(original="orig", clone="clone"))
        result = call(sim, caller, OpRequest(key="pf", op="incr", args=(1,), instance="clone"))
        assert result.value == 1

    def test_clone_unregistration(self, sim, store, caller):
        call(sim, caller, OwnerRequest(key="pf", instance="orig", action="associate"))
        call(sim, caller, CloneRegistration(original="orig", clone="clone"))
        call(sim, caller, CloneRegistration(original="orig", clone="clone", register=False))
        result = call(sim, caller, OpRequest(key="pf", op="incr", args=(1,), instance="clone"))
        assert result.value is None

    def test_a_registered_clone_claims_for_its_original(self, sim, store, caller):
        # a clone's first write of a new flow can beat its original's (whose
        # flush was lost): it writes on the original's behalf (§5.3), so the
        # claim is the original's and survives the clone's deregistration
        call(sim, caller, CloneRegistration(original="orig", clone="clone"))
        first = OpRequest(key="pf", op="incr", args=(1,), instance="clone", claim_owner=True)
        assert call(sim, caller, first).value == 1
        assert store.owner_of("pf") == "orig"
        call(sim, caller, CloneRegistration(original="orig", clone="clone", register=False))
        late = OpRequest(key="pf", op="incr", args=(1,), instance="orig", claim_owner=True)
        assert call(sim, caller, late).value == 2
        assert store.stats.rejected == 0
        # nobody's clone: the claim is the writer's own, as ever
        call(sim, caller, OpRequest(key="pg", op="incr", instance="clone", claim_owner=True))
        assert store.owner_of("pg") == "clone"

    def test_takeover_moves_all_keys(self, sim, store, caller):
        for key in ("a", "b", "c"):
            call(sim, caller, OwnerRequest(key=key, instance="old", action="associate"))
        moved = call(sim, caller, TakeoverRequest(old_instance="old", new_instance="new"))
        assert moved == 3
        assert all(store.owner_of(k) == "new" for k in ("a", "b", "c"))

    def test_bulk_move_swaps_and_notifies(self, sim, store, caller):
        for key in ("a", "b"):
            call(sim, caller, OwnerRequest(key=key, instance="old", action="associate"))
        call(sim, caller, WatchRequest(key="rendezvous", endpoint="nf-0", kind="owner"))
        moved = call(
            sim,
            caller,
            BulkOwnerMove(keys=("a", "b"), old_instance="old", new_instance="new",
                          notify_key="rendezvous"),
        )
        sim.run()
        assert moved == 2
        assert store.owner_of("a") == "new"
        assert len(caller.messages) == 1  # owner callback delivered

    def test_disassociate_notifies_watchers(self, sim, store, caller):
        call(sim, caller, OwnerRequest(key="pf", instance="old", action="associate"))
        call(sim, caller, WatchRequest(key="pf", endpoint="nf-0", kind="owner"))
        call(sim, caller, OwnerRequest(key="pf", instance="old", action="disassociate"))
        sim.run()
        assert store.owner_of("pf") is None
        envelope = caller.messages.try_get()
        assert envelope.payload.owner is None


class TestCallbacks:
    def test_value_watchers_notified_except_updater(self, sim, network, store, caller):
        other = RpcEndpoint(sim, network, "nf-1")
        call(sim, caller, WatchRequest(key="k", endpoint="nf-0", kind="value"))
        call(sim, caller, WatchRequest(key="k", endpoint="nf-1", kind="value"))
        call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="nf-0"))
        sim.run()
        assert len(caller.messages) == 0  # the updater is excluded
        envelope = other.messages.try_get()
        assert envelope.payload.value == 1


class TestTsMetadata:
    def test_per_key_ts_tracks_last_clock_per_instance(self, sim, store, caller):
        call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="i1", clock=4))
        call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="i2", clock=9))
        result = call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="i1", clock=12))
        assert result.ts == {"i1": 12, "i2": 9}

    def test_read_returns_ts(self, sim, store, caller):
        call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="i1", clock=4))
        read = call(sim, caller, ReadRequest(key="k"))
        assert read.ts == {"i1": 4}

    def test_ts_is_per_key(self, sim, store, caller):
        call(sim, caller, OpRequest(key="a", op="incr", args=(1,), instance="i1", clock=4))
        read = call(sim, caller, ReadRequest(key="b"))
        assert read.ts == {}


class TestCheckpointNonDetMisc:
    def test_checkpoint_snapshot(self, sim, store, caller):
        call(sim, caller, OpRequest(key="k", op="incr", args=(7,), instance="i", clock=2))
        store.take_checkpoint()
        call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="i", clock=3))
        assert store.last_checkpoint.data["k"] == 7
        assert store.last_checkpoint.ts["k"] == {"i": 2}
        assert store.peek("k") == 8

    def test_periodic_checkpoints(self, sim, network):
        from repro.store.datastore import DatastoreInstance

        periodic = DatastoreInstance(
            sim, network, "store-ckpt", checkpoint_interval_us=100.0
        )
        sim.run(until=350)
        assert periodic.last_checkpoint is not None
        assert periodic.last_checkpoint.taken_at == pytest.approx(300.0)

    def test_nondet_stable_per_clock(self, sim, store, caller):
        first = call(sim, caller, NonDetRequest(clock=5, purpose="jitter"))
        again = call(sim, caller, NonDetRequest(clock=5, purpose="jitter"))
        other = call(sim, caller, NonDetRequest(clock=6, purpose="jitter"))
        assert first == again
        assert first != other

    def test_nondet_time_kind(self, sim, store, caller):
        t1 = call(sim, caller, NonDetRequest(clock=5, purpose="ts", kind="time"))
        def later():
            yield sim.timeout(100)
            value = yield caller.call_event("store0", NonDetRequest(clock=5, purpose="ts", kind="time"))
            return value
        t2 = sim.run_process(later())
        assert t1 == t2  # replay sees the original timestamp

    def test_snapshot_request_filters_by_prefix(self, sim, store, caller):
        call(sim, caller, WriteRequest(key="nat\x1fa\x1f", value=1))
        call(sim, caller, WriteRequest(key="lb\x1fb\x1f", value=2))
        snapshot = call(sim, caller, SnapshotRequest(prefix="nat\x1f"))
        assert list(snapshot) == ["nat\x1fa\x1f"]

    def test_fail_clears_state_keeps_checkpoint(self, sim, store, caller):
        call(sim, caller, OpRequest(key="k", op="incr", args=(1,), instance="i", clock=1))
        store.take_checkpoint()
        store.fail()
        assert not store.alive
        assert store.peek("k") is None
        assert store.last_checkpoint.data["k"] == 1


class TestLocks:
    def test_lock_read_then_write_unlock(self, sim, store, caller):
        read = call(sim, caller, LockReadRequest(key="k", instance="a"))
        assert read.value is None
        assert call(sim, caller, WriteUnlockRequest(key="k", value=10, instance="a")) is True
        assert store.peek("k") == 10

    def test_second_locker_waits_for_unlock(self, sim, network, store, caller):
        other = RpcEndpoint(sim, network, "nf-1")
        events = []

        def holder():
            yield caller.call_event("store0", LockReadRequest(key="k", instance="a"))
            events.append(("a-locked", sim.now))
            yield sim.timeout(100)
            yield caller.call_event("store0", WriteUnlockRequest(key="k", value=1, instance="a"))
            events.append(("a-unlocked", sim.now))

        def waiter():
            yield sim.timeout(5)
            read = yield other.call_event("store0", LockReadRequest(key="k", instance="b"))
            events.append(("b-locked", sim.now, read.value))
            yield other.call_event("store0", WriteUnlockRequest(key="k", value=2, instance="b"))

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        kinds = [e[0] for e in events]
        assert kinds.index("b-locked") > kinds.index("a-unlocked")
        b_event = next(e for e in events if e[0] == "b-locked")
        assert b_event[2] == 1  # b reads a's committed write
        assert store.peek("k") == 2
