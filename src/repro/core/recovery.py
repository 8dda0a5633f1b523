"""NF-instance and root failover (§5.4).

NF failover: a replacement instance takes the failed instance's place —
the datastore manager associates the replacement's ID with the relevant
state (one metadata takeover, no state copy), the splitter swaps the
routing slot, and the root replays all logged packets targeted at the
replacement (bringing per-flow state up to speed with the in-transit
packets the crash lost). Duplicate state updates and upstream processing
are suppressed exactly as during cloning.

Root failover: the new root reads the last persisted clock from the
datastore, resumes the clock *past* the unpersisted window (footnote 5),
queries downstream instances for the current flow allocation, and adopts
the predecessor's input channel — packets that arrived while the root was
down were buffered there and are processed first. A locally-logged packet
log dies with the root: those in-flight packets are "dropped by the
network" (Theorem B.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.core.clock import LogicalClock
from repro.core.root import Root
from repro.simnet.rpc import RpcEndpoint
from repro.store.keys import StateKey, root_clock_key, root_log_key
from repro.store.protocol import ReadRequest, SnapshotRequest, TakeoverRequest

# Retransmissions per recovery-protocol RPC before giving up. Recovery must
# make progress over the same lossy links that caused the failure, so every
# blocking call below retries with backoff when the runtime has a
# retransmission timeout configured (RuntimeParams.retransmit_timeout_us).
RECOVERY_RETRY_BUDGET = 12


def _recovery_call(runtime, endpoint: RpcEndpoint, dst, payload) -> Generator:
    """Blocking RPC used by the recovery protocols (bounded retransmission)."""
    timeout = getattr(runtime.params, "retransmit_timeout_us", None)
    if timeout is None:
        result = yield endpoint.call_event(dst() if callable(dst) else dst, payload)
        return result
    result = yield from endpoint.call(
        dst, payload, timeout_us=timeout, max_retries=RECOVERY_RETRY_BUDGET, backoff=1.5
    )
    return result


def metadata_call(runtime, instance, payload) -> Generator:
    """One bulk ownership-metadata update (takeover, clone registration)
    sent by ``instance`` to the store node holding its vertex's state,
    retransmitted like every recovery RPC."""
    state_key = StateKey(instance.vertex_name, "_").storage_key()
    result = yield from _recovery_call(
        runtime, instance.client.endpoint, lambda: runtime.store.endpoint_for_key(state_key), payload
    )
    return result


def replay_all_roots(runtime, target) -> Generator:
    """Replay every root's packet log at the buffering instance ``target``
    (§5.3, §5.4). Returns how many packets were replayed.

    With multiple roots, each holds the log for its traffic share; the
    replay-end marker rides the last root that has anything to replay, so
    the target's live-traffic buffer is released only after every replayed
    packet has been processed. When no copy carried the marker — nothing
    was replayed, or the newest entry was deleted before its turn — the
    target is told the count here instead.
    """
    roots_with_logs = [root for root in runtime.roots if root.log]
    replayed = 0
    marked = False
    for root in roots_with_logs:
        newest = max(root.log)  # the marker's clock, if it is not deleted first
        clocks = yield from root.replay(
            target.instance_id, mark_end=root is roots_with_logs[-1], prior_replayed=replayed
        )
        replayed += len(clocks)
        marked = bool(clocks) and clocks[-1] == newest
    if not marked:
        target.expect_replayed(replayed)
    return replayed


@dataclass
class NFRecoveryResult:
    failed_id: str
    new_id: str
    started_at: float
    finished_at: float
    replayed: int
    state_keys_taken: int

    @property
    def duration_us(self) -> float:
        return self.finished_at - self.started_at


def fail_over_nf(runtime, failed_id: str, suffix: Optional[str] = None) -> Generator:
    """Recover a crashed NF instance (process body; returns the result).

    Assumes the failure was already detected (fail-stop model: detection is
    immediate) and, per §7.3 R6, that the replacement container launches
    immediately — what is measured is CHC's state recovery.
    """
    sim = runtime.sim
    started_at = sim.now
    failed = runtime.instance(failed_id)
    if failed.alive:
        raise RuntimeError(f"{failed_id} has not failed; refusing to fail over")
    vertex = failed.vertex_name
    suffix = suffix or f"{failed_id.split('-', 1)[1]}r"

    replacement = runtime.add_instance(vertex, suffix, start_buffering=True)

    # 1. Associate the failover instance's ID with the failed instance's
    #    state (bulk metadata update at the vertex's store instance).
    taken = yield from metadata_call(
        runtime,
        replacement,
        TakeoverRequest(old_instance=failed_id, new_instance=replacement.instance_id),
    )

    # 2. Take over routing: same hash slot, so no flows remap.
    runtime.replace_instance(failed_id, replacement.instance_id)

    # 3. Replay logged packets through the chain at the replacement.
    replayed = yield from replay_all_roots(runtime, replacement)

    return NFRecoveryResult(
        failed_id=failed_id,
        new_id=replacement.instance_id,
        started_at=started_at,
        finished_at=sim.now,
        replayed=replayed,
        state_keys_taken=taken,
    )


@dataclass
class RootRecoveryResult:
    new_root: Root
    started_at: float
    finished_at: float
    resumed_sequence: int
    allocations: int

    @property
    def duration_us(self) -> float:
        return self.finished_at - self.started_at


def fail_over_root(runtime, root: Optional[Root] = None) -> Generator:
    """Recover a failed root (process body; returns the result).

    Costs: one store RTT to read the persisted clock, plus one (parallel)
    query round to downstream instances for the flow allocation — the §7.3
    "< 41.2µs" path. ``root`` selects which root instance failed in a
    multi-root deployment (defaults to the first).
    """
    sim = runtime.sim
    old_root = root or runtime.root
    if old_root.alive:
        raise RuntimeError("root has not failed; refusing to fail over")
    started_at = sim.now

    bootstrap = RpcEndpoint(sim, runtime.network, f"{old_root.name}-recovery-{int(sim.now)}")
    store_endpoint = old_root.store_endpoint or runtime.stores[0].name
    read = yield from _recovery_call(
        runtime,
        bootstrap,
        store_endpoint,
        ReadRequest(key=root_clock_key(old_root.root_id)),
    )
    persisted = read.value or 0
    log_snapshot = {}
    if old_root.log_in_store:
        # the store-kept packet log survives the root (§7.2's trade-off)
        log_snapshot = yield from _recovery_call(
            runtime,
            bootstrap,
            store_endpoint,
            SnapshotRequest(prefix=root_log_key(old_root.root_id)),
        )

    # Query the entry vertex's instances for their flow allocation, in
    # parallel (the recovering root must partition subsequent traffic the
    # same way, §5.4 "Root"). Each query is its own process so its retry
    # loop runs concurrently with the others.
    entry_instances = runtime.instances_of(runtime.chain.entry)
    queries = [
        sim.process(
            _recovery_call(runtime, bootstrap, instance.instance_id, "allocation"),
            name=f"root-recovery-alloc({instance.instance_id})",
        )
        for instance in entry_instances
        if instance.alive
    ]
    allocations = []
    if queries:
        allocations = yield sim.all_of(queries)
    bootstrap.fail()

    clock = LogicalClock.resume_from(
        old_root.root_id, persisted, old_root.persist_every
    )
    new_root = Root(
        sim,
        runtime.network,
        old_root.name,  # adopt the same address: commit signals keep flowing
        forward=runtime._forward_from_root,
        store_endpoint=old_root.store_endpoint,
        root_id=old_root.root_id,
        persist_every=old_root.persist_every,
        log_in_store=old_root.log_in_store,
        local_log_cost_us=old_root.local_log_cost_us,
        log_threshold=old_root.log_threshold,
        store_endpoints_for_prune=old_root.store_endpoints_for_prune,
        clock=clock,
        input_channel=old_root.input,
    )
    new_root.on_deleted.append(runtime._on_packet_deleted)
    if log_snapshot:
        new_root.restore_log(log_snapshot)
    runtime.root = new_root  # the setter slots it by root_id

    return RootRecoveryResult(
        new_root=new_root,
        started_at=started_at,
        finished_at=sim.now,
        resumed_sequence=clock.last_issued_sequence,
        allocations=len(allocations),
    )
