"""Wire messages of the chain: client library <-> store instances, and the
chain's and stores' reports to the root (every class the
:mod:`repro.dist.transport` codec registers, bar the packet and frames)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


@dataclass
class OpRequest:
    """Offload an operation to the store (§4.3).

    ``blocking`` — caller waits for the result; otherwise the store ACKs
    immediately and applies in the background.
    ``clock`` — logical clock of the inducing packet (0 = not packet-induced);
    used for duplicate-update emulation (§5.3) and commit signals to the
    root (§5.4, Figure 6).
    ``vector_tag`` — the 32-bit (vertex ID || object ID) tag the store
    reports to the root when the update commits.
    ``seq`` — the index of this update among all updates packet ``clock``
    induces on this key (0 for the first). Duplicate processing (replay,
    clone replication) re-issues the same (key, clock, seq) identity, which
    is how the store recognises and emulates duplicates (§5.3).
    ``log_update`` — whether the store should clock-log this update for
    duplicate suppression (on for packet-induced updates).
    """

    key: str
    op: str
    args: Tuple = ()
    instance: str = ""
    clock: int = 0
    seq: int = 0
    blocking: bool = True
    vector_tag: int = 0
    log_update: bool = True
    claim_owner: bool = False  # first write of per-flow state associates it
    return_state: bool = False  # send back the updated object (cache seeding)


@dataclass
class OpResult:
    """Blocking-operation result: the op's return value plus the TS set.

    ``state`` carries the post-operation object when the requester asked
    for it (§4.3: "The store applies the operation and sends back the
    updated object to the update initiator") — used to seed caches.
    """

    value: Any
    ts: Dict[str, int] = field(default_factory=dict)
    emulated: bool = False
    state: Any = None


@dataclass
class BatchedOpRequest:
    """A batch of non-blocking updates flushed in one RPC (§6 fast path).

    The batched fast path coalesces the per-packet flush traffic of a whole
    packet batch into a single store round-trip. Each entry is a complete
    :class:`OpRequest` carrying its own (key, clock, seq, vector_tag)
    identity, so duplicate emulation, WAL logging and commit signals behave
    **exactly** as if the entries had been sent individually — the batch
    changes message/event count, never semantics. The store applies entries
    in order and replies with one ACK for the whole batch.
    """

    entries: Tuple["OpRequest", ...]
    instance: str = ""


@dataclass
class Overloaded:
    """Retryable admission-control rejection (§8).

    Sent (with ``ok=True`` — this is a reply, not an RPC failure) in place
    of the normal result when the store is over its in-flight budget. The
    requested operation was NOT applied; the client backs off
    ``retry_after_us`` (plus jitter) and reissues. Only data-plane traffic
    is ever rejected — control-plane requests (ownership moves, watches,
    takeovers) are always admitted so overload cannot wedge handover or
    recovery.
    """

    retry_after_us: float = 50.0


@dataclass
class ReadRequest:
    """Read current value (after applying outstanding background updates)."""

    key: str
    instance: str = ""


@dataclass
class ReadResult:
    value: Any
    owner: Optional[str] = None
    ts: Dict[str, int] = field(default_factory=dict)


@dataclass
class WriteRequest:
    """Raw value write — used by cache flushes of per-flow state."""

    key: str
    value: Any
    instance: str = ""


@dataclass
class OwnerRequest:
    """Update ownership metadata (per-flow state association)."""

    key: str
    instance: str = ""
    action: str = "associate"  # "associate" | "disassociate"


@dataclass
class BulkOwnerMove:
    """Move ownership of many per-flow state keys in one request.

    Elastic scaling reallocates whole flow groups; CHC "notifies the
    datastore manager to update the relevant instance IDs" (§7.3 R2) —
    one message, not one transfer per flow, which is why its move is ~35X
    cheaper than OpenNF's state transfer. ``notify_key`` identifies the
    move rendezvous for owner-watch callbacks.
    """

    keys: Tuple[str, ...]
    old_instance: str
    new_instance: str
    notify_key: str = ""


@dataclass
class CloneRegistration:
    """Register/unregister ``clone`` as co-owner of ``original``'s state.

    Straggler mitigation (§5.3) runs a clone in parallel with the original
    on the same input; both must be able to update the original's per-flow
    state (duplicate updates are suppressed by the clock log). ``register``
    False removes the mapping.
    """

    original: str
    clone: str
    register: bool = True


@dataclass
class TakeoverRequest:
    """Re-associate ALL state owned by ``old_instance`` to ``new_instance``.

    Used when an NF instance fails over (§5.4 "NF Failover": "the datastore
    manager associates the failover instance's ID with relevant state") and
    when a straggler is killed in favour of its clone.
    """

    old_instance: str
    new_instance: str


@dataclass
class WatchRequest:
    """Register a callback endpoint.

    ``kind='value'`` — notify on every committed update of the object
    (read-heavy cross-flow caching, §4.3).
    ``kind='owner'`` — notify when ownership metadata changes (handover
    step 3, Figure 4).
    """

    key: str
    endpoint: str
    kind: str = "value"


@dataclass
class UnwatchRequest:
    key: str
    endpoint: str
    kind: str = "value"


@dataclass
class LockReadRequest:
    """Acquire the key's lock, then read (StatelessNF-style access [17]).

    The store grants locks in FIFO order per key; the response (the
    current value) is withheld until the lock is granted, so waiters block
    exactly as they would spinning on a remote lock.
    """

    key: str
    instance: str = ""


@dataclass
class WriteUnlockRequest:
    """Write a value back and release the key's lock."""

    key: str
    value: Any
    instance: str = ""


@dataclass
class CallbackMessage:
    """Store → client one-way notification for a watched key."""

    key: str
    kind: str
    value: Any = None
    owner: Optional[str] = None


@dataclass
class CommitSignal:
    """Store → root: update for packet ``clock`` committed (Figure 6 step 2)."""

    clock: int
    vector_tag: int


@dataclass
class BatchedCommitSignal:
    """Store → root: commit signals for a batch-served set of updates.

    Transport aggregation only (§6 fast path): the root processes each
    ``(clock, vector_tag)`` entry exactly as an individual
    :class:`CommitSignal`, in order — one message instead of one per op.
    """

    signals: Tuple[Tuple[int, int], ...]


@dataclass
class DeleteRequest:
    """Chain -> root: one copy of packet ``clock`` finished its journey."""

    clock: int
    vector: int
    generation: int = 0


@dataclass
class BatchedDeleteRequest:
    """Chain -> root: delete reports for a fast-path batch, in one message.

    Each ``(clock, vector, generation)`` entry is processed exactly as an
    individual :class:`DeleteRequest`, in order (§6 fast path)."""

    entries: tuple


@dataclass
class PruneRequest:
    """Root → store: packet ``clock`` left the chain; drop its update logs."""

    clock: int


@dataclass
class BatchedPruneRequest:
    """Root → store: prune several departed clocks in one message.

    The root aggregates prunes that fall due within one grace window;
    each clock is pruned exactly as an individual :class:`PruneRequest`.
    """

    clocks: Tuple[int, ...]


@dataclass
class NonDetRequest:
    """Appendix A: store-computed non-deterministic value.

    The store computes (or recalls) the value for (clock, purpose), so a
    replayed packet observes the identical "random" outcome.
    """

    clock: int
    purpose: str
    kind: str = "random"  # "random" | "time"


@dataclass
class SnapshotRequest:
    """Ask a store instance for a full state snapshot (tests/recovery)."""

    prefix: str = ""


@dataclass
class CheckpointControl:
    """Start/stop periodic checkpointing or force one now."""

    action: str = "force"  # "force"
