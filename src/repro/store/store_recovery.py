"""Datastore-instance failure recovery (§5.4 "Datastore instance", Figure 7).

Recovery of a crashed store instance proceeds per the paper:

* **Per-flow state** is reconstructed from the NF instances' caches — every
  per-flow object has an up-to-date cached copy at its owning instance
  (Theorem B.5.1).
* **Shared (cross-flow) state** is rebuilt from the last checkpoint plus
  the NF-side write-ahead logs:

  - *Case 1* (no instance read the object since the checkpoint): re-execute
    each instance's logged update operations starting after the clocks in
    the checkpoint's ``TS`` — any interleaving yields a state some
    no-failure execution could have produced (Theorem B.5.2).
  - *Case 2* (some instance read in the failure window): pick, via
    **TS-selection**, the TS corresponding to the most recent read before
    the crash; initialise from that read's logged value and re-execute each
    instance's operations after their clocks in the selected TS
    (Theorem B.5.3). "Most recent clock does not correspond to most recent
    read" — the selection traverses each instance's op log in reverse.

Re-executed operations run through the replacement store's normal
``apply_operation`` path, which rebuilds the per-clock update log — so a
client retransmitting an un-ACK'd op after recovery is emulated, not
double-applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.simnet.engine import Simulator
from repro.store.cluster import StoreCluster
from repro.store.datastore import Checkpoint, DatastoreInstance
from repro.store.rehome import seed_log, successor
from repro.store.operations import OperationRegistry
from repro.store.protocol import OpRequest
from repro.store.wal import ReadLogEntry, UpdateLogEntry, WriteAheadLog, entries_after


def select_ts(
    reads: List[ReadLogEntry],
    update_logs: Dict[str, List[UpdateLogEntry]],
) -> Optional[ReadLogEntry]:
    """TS-selection (§5.4): find the read whose TS is the most recent.

    ``reads`` are all logged reads of one key in the failure window, from
    every instance; ``update_logs`` map instance -> that instance's update
    ops on the key, in issue order. Returns the selected read (whose value
    seeds re-execution), or ``None`` when there were no reads (Case 1).

    Mirrors the paper's procedure: form the set of all TS's; traverse each
    instance's op log in reverse to find the latest update whose clock
    appears in any candidate TS; drop candidates not containing that clock.
    """
    if not reads:
        return None
    candidates: List[Tuple[ReadLogEntry, frozenset]] = [
        (read, frozenset(read.ts.values())) for read in reads
    ]
    for instance in sorted(update_logs):
        if len(candidates) <= 1:
            break
        union = frozenset().union(*(clocks for _read, clocks in candidates))
        chosen: Optional[int] = None
        for entry in reversed(update_logs[instance]):
            if entry.clock in union:
                chosen = entry.clock
                break
        if chosen is None:
            continue
        remaining = [(r, c) for r, c in candidates if chosen in c]
        if remaining:  # never eliminate everything (degenerate TS overlap)
            candidates = remaining
    # Identical TS sets can survive; the latest-issued read among them is
    # the one all other constraints are consistent with.
    return max(candidates, key=lambda item: item[0].at)[0]


@dataclass
class RecoveryPlan:
    """How one shared key will be rebuilt: seed value + ops to re-execute."""

    key: str
    base_value: Any
    base_ts: Dict[str, int]
    entries: List[Tuple[str, UpdateLogEntry]]  # (instance, entry) in re-exec order
    case: int  # 1 or 2
    selected_read: Optional[ReadLogEntry] = None


def plan_shared_key_recovery(
    key: str,
    checkpoint: Optional[Checkpoint],
    wals: Dict[str, WriteAheadLog],
) -> RecoveryPlan:
    """Decide Case 1 vs Case 2 for ``key`` and list the ops to re-execute."""
    since = checkpoint.taken_at if checkpoint else 0.0
    window_reads = [
        read
        for wal in wals.values()
        for read in wal.reads_for(key)
        if read.at >= since
    ]
    update_logs = {instance: wal.updates_for(key) for instance, wal in wals.items()}
    selected = select_ts(window_reads, update_logs)

    if selected is not None:
        base_value = selected.value
        base_ts: Dict[str, int] = dict(selected.ts)
        case = 2
    else:
        base_value = checkpoint.data.get(key) if checkpoint else None
        base_ts = dict(checkpoint.ts.get(key, {})) if checkpoint else {}
        case = 1

    entries: List[Tuple[str, UpdateLogEntry]] = []
    for instance in sorted(wals):
        start_clock = base_ts.get(instance)
        pending = update_logs[instance]
        if start_clock is not None:
            pending = entries_after(pending, start_clock)
        entries.extend((instance, entry) for entry in pending)
    return RecoveryPlan(
        key=key,
        base_value=base_value,
        base_ts=base_ts,
        entries=entries,
        case=case,
        selected_read=selected,
    )


@dataclass
class KeyRecovery:
    """Outcome of recovering one shared key."""

    value: Any
    reexecuted_ops: int
    case: int
    selected_read: Optional[ReadLogEntry] = None


def recover_shared_key(
    key: str,
    checkpoint: Optional[Checkpoint],
    wals: Dict[str, WriteAheadLog],
    registry: OperationRegistry,
) -> KeyRecovery:
    """Pure-algorithm form of one-key recovery (unit-testable, no sim)."""
    plan = plan_shared_key_recovery(key, checkpoint, wals)
    value = plan.base_value
    for _instance, entry in plan.entries:
        value, _rv = registry.apply(entry.op, value, entry.args)
    return KeyRecovery(
        value=value,
        reexecuted_ops=len(plan.entries),
        case=plan.case,
        selected_read=plan.selected_read,
    )


@dataclass
class StoreRecoveryResult:
    """What a completed store-instance recovery produced."""

    replacement: DatastoreInstance
    started_at: float
    finished_at: float
    shared_keys: Dict[str, KeyRecovery] = field(default_factory=dict)
    per_flow_keys: int = 0
    reexecuted_ops: int = 0

    @property
    def duration_us(self) -> float:
        return self.finished_at - self.started_at


def recover_store_instance(
    sim: Simulator,
    cluster: StoreCluster,
    failed: DatastoreInstance,
    clients: List,  # List[StoreClient]; untyped to avoid an import cycle
    new_name: str,
    rtt_us: float = 28.0,
    per_key_transfer_us: float = 0.5,
) -> Generator:
    """Drive a full store-instance recovery (a simulation process).

    Steps, with their simulated costs:

    1. boot a replacement instance;
    2. query every NF client for its cached per-flow state (one RTT per
       client plus transfer time per key) and install it, restoring
       ownership metadata;
    3. rebuild every shared key from checkpoint + WALs, re-executing
       logged operations at the store's per-op service time;
    4. swap the replacement into the cluster's routing.

    Returns a :class:`StoreRecoveryResult` (``yield from`` it).
    """
    started_at = sim.now
    checkpoint = failed.last_checkpoint
    replacement = successor(failed, new_name, registry=failed.registry.copy())
    result = StoreRecoveryResult(
        replacement=replacement, started_at=started_at, finished_at=started_at
    )

    # -- per-flow state from NF caches (Theorem B.5.1) -------------------
    for client in clients:
        yield sim.timeout(rtt_us)  # query the instance's cached copies
        snapshot = client.per_flow_snapshot()
        # Atomically with the read: the cache subsumes every flushed-but-
        # unACK'd op on these keys, so their retransmissions are cancelled
        # *now* — an op tracked after this instant is not in the snapshot
        # and must still retransmit.
        client.drop_pending_flushes(snapshot)
        if snapshot:
            yield sim.timeout(per_key_transfer_us * len(snapshot))
        for key, value in snapshot.items():
            replacement._data[key] = value
            replacement._owners[key] = client.instance_id
            result.per_flow_keys += 1

    # -- shared state from checkpoint + WALs (Theorems B.5.2/B.5.3) ------
    # Seed the replacement's duplicate-suppression log from the checkpoint:
    # every identity in it is already reflected in the checkpoint data, so
    # a client retransmitting one (its ACK was lost with the old instance)
    # must be emulated, not re-applied.
    covered = seed_log(replacement, checkpoint.update_log) if checkpoint else set()
    wals = {client.instance_id: client.wal for client in clients}
    shared_keys = sorted(
        {key for wal in wals.values() for key in wal.updated_keys()}
        | (set(checkpoint.data) - set(replacement._data) if checkpoint else set())
    )
    for key in shared_keys:
        plan = plan_shared_key_recovery(key, checkpoint, wals)
        if plan.entries:
            yield sim.timeout(replacement.op_service_us * len(plan.entries))
        replacement._data[key] = plan.base_value
        replacement._ts[key] = dict(plan.base_ts)
        for instance, entry in plan.entries:
            covered.add((key, entry.clock, entry.seq))
            replacement.apply_operation(
                OpRequest(
                    key=key,
                    op=entry.op,
                    args=entry.args,
                    instance=instance,
                    clock=entry.clock,
                    seq=entry.seq,
                    log_update=entry.clock > 0,
                )
            )
        result.shared_keys[key] = KeyRecovery(
            value=replacement._data.get(key),
            reexecuted_ops=len(plan.entries),
            case=plan.case,
            selected_read=plan.selected_read,
        )
        result.reexecuted_ops += len(plan.entries)

    # Reconcile clients' pending retransmissions against what the rebuild
    # covers (checkpointed identities + re-executed WAL entries): covered
    # ops must not be retransmitted (double-apply), un-covered ones must
    # keep retransmitting — they were lost in flight and the retransmission
    # to the replacement is exactly what recovers them.
    for client in clients:
        client.cancel_pending_flushes(covered)

    cluster.replace_instance(failed.name, replacement)
    result.finished_at = sim.now
    return result
