"""Machine-checkable correctness invariants for disturbed runs.

Each checker encodes a guarantee the paper proves for CHC and returns a
list of :class:`InvariantViolation` (empty = the guarantee held):

* **loss-free state** (Theorems B.5.1–B.5.3): the chain's final store
  state matches the ideal chain's for the same packets — nothing may lose
  or corrupt state, failures and recoveries included. Scenarios that *provably*
  lose a bounded set of packets (a locally-logged root crash drops the
  packets inside the root at that instant, Theorem B.3.1) pass a
  ``loss_allowance``: counters may trail the reference by at most that
  many increments, never exceed it.
* **exactly-once externalization** (Theorem B.4.4): no packet identity
  leaves the chain twice — replay plus duplicate suppression must not leak
  duplicates to the end host.
* **per-flow ordering** (§2.1, Theorem B.2.1): packets of one flow leave
  the chain in injection order.
* **no stranded ownership**: every per-flow key's owner recorded at a
  store names an alive, registered NF instance — failovers and handovers
  must never leave state owned by the dead.
* **one set of books** (DESIGN.md "Instance membership"): the eight
  containers that say which instances exist and where their traffic goes
  agree with each other — a protocol that hand-edits a subset of them
  leaves a corpse or a doubled slot for the next operation to trip over.
* **flush give-ups / recovery failures**: bounded retransmission means a
  client can abandon a flush; on an otherwise-healed network that signals
  lost state, so surviving clients must end with zero give-ups, and every
  supervised recovery must have completed successfully.

:func:`check_invariants` is the one battery every disturbed run is
checked with — chaos, ops and overload scenarios alike, all run by the
one driver (:func:`repro.chaos.campaign.disturbed_run`, checked by
:func:`repro.chaos.campaign.check_scenario`); what it runs beyond the core
depends on what the scenario brings (a reference — a :class:`RunSnapshot`
of :func:`repro.analysis.ideal.ideal_run`, never a second simulated run
that would repeat the store path's faults — a maintenance plan, a
workload that reports its injected count).

Identity: the campaign workload stamps each injected packet's ``payload``
with ``"f<flow>-<seq>"``. Unlike clocks, payload identities are stable
across a root failover (the recovered clock resumes *past* the unpersisted
window, footnote 5, so clock values diverge from the reference's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core import handover
from repro.store.keys import is_internal_key, parse_storage_key


@dataclass
class InvariantViolation:
    """One broken guarantee, with enough detail to debug the run."""

    invariant: str
    detail: str

    def as_dict(self) -> Dict[str, str]:
        return {"invariant": self.invariant, "detail": self.detail}


@dataclass
class RunSnapshot:
    """What a finished run looked like, for cross-run comparison."""

    state: Dict[str, Any]
    egress: List[Tuple[Optional[str], int]] = field(default_factory=list)
    # (payload identity, clock) in egress order


def chain_state(runtime) -> Dict[str, Any]:
    """Final application-visible store state (internal keys filtered)."""
    state: Dict[str, Any] = {}
    for store in runtime.store.instances:
        for key in store.keys():
            if not is_internal_key(key):
                state[key] = store.peek(key)
    return state


def egress_records(runtime) -> List[Tuple[Optional[str], int]]:
    """(payload, clock) of every packet that left the chain, in order."""
    return [
        (packet.payload, packet.clock)
        for _vertex, packet in runtime.egress._items
    ]


# ----------------------------------------------------------------------
# individual checkers
# ----------------------------------------------------------------------


def check_loss_free_state(
    state: Dict[str, Any],
    reference: Dict[str, Any],
    loss_allowance: int = 0,
) -> List[InvariantViolation]:
    """Final state equals the reference's (Theorems B.5.1–B.5.3).

    With ``loss_allowance > 0``, integer-valued keys may trail the
    reference by at most the allowance (bounded, *provable* packet loss)
    but may never exceed it (that would mean duplication or corruption).
    """
    violations: List[InvariantViolation] = []
    for key in sorted(set(reference) | set(state)):
        expected = reference.get(key)
        got = state.get(key)
        if got == expected:
            continue
        if (
            loss_allowance > 0
            and isinstance(expected, int)
            and isinstance(got, (int, type(None)))
        ):
            deficit = expected - (got or 0)
            if 0 <= deficit <= loss_allowance:
                continue
        violations.append(
            InvariantViolation(
                "loss-free-state",
                f"{key!r}: expected {expected!r}, got {got!r}"
                + (f" (allowance {loss_allowance})" if loss_allowance else ""),
            )
        )
    return violations


def check_exactly_once(
    egress: List[Tuple[Optional[str], int]]
) -> List[InvariantViolation]:
    """No packet identity is externalized twice (Theorem B.4.4)."""
    violations: List[InvariantViolation] = []
    seen: Dict[Optional[str], int] = {}
    for payload, _clock in egress:
        if payload is None:
            continue
        seen[payload] = seen.get(payload, 0) + 1
    for payload, count in sorted(seen.items()):
        if count > 1:
            violations.append(
                InvariantViolation(
                    "exactly-once", f"packet {payload!r} externalized {count} times"
                )
            )
    return violations


def check_egress_complete(
    egress: List[Tuple[Optional[str], int]],
    reference: List[Tuple[Optional[str], int]],
    loss_allowance: int = 0,
) -> List[InvariantViolation]:
    """Every reference packet leaves the chain (minus the allowance), and
    nothing leaves that the reference didn't produce."""
    violations: List[InvariantViolation] = []
    got = {payload for payload, _ in egress if payload is not None}
    expected = {payload for payload, _ in reference if payload is not None}
    extra = got - expected
    missing = expected - got
    if extra:
        violations.append(
            InvariantViolation(
                "egress-complete", f"unexpected egress packets: {sorted(extra)[:5]}"
            )
        )
    if len(missing) > loss_allowance:
        violations.append(
            InvariantViolation(
                "egress-complete",
                f"{len(missing)} packets never externalized "
                f"(allowance {loss_allowance}): {sorted(missing)[:5]}...",
            )
        )
    return violations


def check_flow_ordering(
    egress: List[Tuple[Optional[str], int]]
) -> List[InvariantViolation]:
    """Per-flow egress order matches injection order (Theorem B.2.1).

    Relies on the campaign's ``"f<flow>-<seq>"`` payload convention;
    packets without it are skipped.
    """
    violations: List[InvariantViolation] = []
    last_seq: Dict[str, int] = {}
    for payload, _clock in egress:
        if not payload or "-" not in payload:
            continue
        flow, _, seq_text = payload.rpartition("-")
        try:
            seq = int(seq_text)
        except ValueError:
            continue
        previous = last_seq.get(flow)
        if previous is not None and seq <= previous:
            violations.append(
                InvariantViolation(
                    "flow-ordering",
                    f"flow {flow!r}: packet #{seq} externalized after #{previous}",
                )
            )
        last_seq[flow] = max(seq, last_seq.get(flow, -1))
    return violations


def check_ownership_map(
    owners: Dict[str, Optional[str]],
    alive_instances: Iterable[str],
    store_name: str = "store",
) -> List[InvariantViolation]:
    """Serializable form of :func:`check_ownership`.

    ``owners`` is a store's key -> owner map, ``alive_instances`` the set of
    instance IDs currently alive — exactly what the distributed fabric
    (repro.dist) collects over the wire from a store snapshot and shard
    status replies, with no live runtime in the checking process.
    """
    alive = set(alive_instances)
    violations: List[InvariantViolation] = []
    for key, owner in sorted(owners.items()):
        if owner is None or is_internal_key(key):
            continue
        if owner not in alive:
            violations.append(
                InvariantViolation(
                    "no-stranded-ownership",
                    f"{store_name}: key {key!r} owned by dead or unknown "
                    f"instance {owner!r}",
                )
            )
    return violations


def check_ownership(runtime) -> List[InvariantViolation]:
    """Every recorded per-flow owner is an alive, registered NF instance."""
    alive = [
        instance_id
        for instance_id, instance in runtime.instances.items()
        if instance.alive
    ]
    violations: List[InvariantViolation] = []
    for store in runtime.store.instances:
        if not store.alive:
            continue
        violations += check_ownership_map(store._owners, alive, store.name)
    return violations


def check_membership(runtime, supervisor=None) -> List[InvariantViolation]:
    """The membership containers agree (DESIGN.md "Instance membership").

    Per vertex, ``Splitter.instances`` lists each member once; every hash
    slot, override target and ``replicate`` endpoint is a member;
    ``runtime.instances`` holds exactly the listed ids; and a listed
    instance is alive — unless its own recovery is what ``supervisor`` has
    queued or running.
    """
    violations: List[InvariantViolation] = []

    def _bad(detail: str) -> None:
        violations.append(InvariantViolation("membership", detail))

    listed: set = set()
    for vertex, splitter in sorted(runtime.splitters.items()):
        members = splitter.instances
        listed.update(members)
        if len(set(members)) != len(members):
            _bad(f"{vertex!r}: splitter lists an instance twice: {members}")
        routed = {
            "hash_members": splitter.hash_members,
            "overrides": splitter.overrides.values(),
            "replicate": [*splitter.replicate, *splitter.replicate.values()],
        }
        for container, names in routed.items():
            strangers = sorted(set(names) - set(members))
            if strangers:
                _bad(f"{vertex!r}: {container} names non-members {strangers}")
    keys = set(runtime.instances)
    if keys != listed:
        _bad(
            f"runtime.instances != splitter members: only in instances "
            f"{sorted(keys - listed)}, only listed {sorted(listed - keys)}"
        )
    recovering = [] if supervisor is None else supervisor.recovering()
    for instance_id, instance in sorted(runtime.instances.items()):
        if not instance.alive and instance not in recovering:
            _bad(f"{instance_id!r} is dead and still a member")
    return violations


def check_log_drained(runtime) -> List[InvariantViolation]:
    """Every root's packet log is empty once traffic quiesced.

    Only meaningful for scenarios without message loss: the one-way
    DeleteRequest / CommitSignal messages are not retransmitted, so a lossy
    window legitimately strands log entries (the memory is reclaimed by the
    prune protocol in a real deployment).
    """
    return check_log_lengths(
        {root.name: len(root.log) for root in runtime.roots if root.alive}
    )


def check_log_lengths(log_lengths: Dict[str, int]) -> List[InvariantViolation]:
    """Serializable form of :func:`check_log_drained`: root name -> number
    of packet-log entries left at quiescence."""
    violations: List[InvariantViolation] = []
    for name, length in sorted(log_lengths.items()):
        if length:
            violations.append(
                InvariantViolation(
                    "log-drained",
                    f"{name}: {length} packet log entries not deleted",
                )
            )
    return violations


def check_no_gaveups(runtime) -> List[InvariantViolation]:
    """No surviving client abandoned a state flush (potential lost state)."""
    return check_gaveup_counts(
        {
            instance.instance_id: instance.client.stats.flushes_gave_up
            for instance in runtime.instances.values()
            if instance.alive
        }
    )


def check_gaveup_counts(gaveups: Dict[str, int]) -> List[InvariantViolation]:
    """Serializable form of :func:`check_no_gaveups`: instance ID ->
    ``flushes_gave_up`` counter of every surviving client."""
    violations: List[InvariantViolation] = []
    for instance_id, gave_up in sorted(gaveups.items()):
        if gave_up:
            violations.append(
                InvariantViolation(
                    "no-flush-gaveups",
                    f"{instance_id}: {gave_up} flushes exhausted their "
                    "retry budget",
                )
            )
    return violations


SHED_CAUSES = ("overload_queue", "nic_ring")


def check_sheds_accounted(
    runtime, injected: int, loss_allowance: int = 0
) -> List[InvariantViolation]:
    """Every injected packet either left the chain or was *accounted* for.

    Overload resilience (§8) is allowed to shed load — but never silently:
    each shed copy must land in the Network per-cause drop ledger (queue
    sheds, NIC ring tail-drops) or the root's at-threshold counter. A gap
    between ``injected`` and ``egressed + accounted`` is exactly the
    silent-loss bug class the backpressure layer exists to rule out.
    Up to ``loss_allowance`` missing packets are forgiven, as in
    :func:`check_egress_complete`; an over-count never is.

    Only valid after the run has quiesced (nothing still queued).
    """
    egressed = {
        payload for payload, _clock in egress_records(runtime) if payload is not None
    }
    shed = sum(runtime.network.drops.get(cause, 0) for cause in SHED_CAUSES)
    at_root = sum(root.stats.dropped_at_threshold for root in runtime.roots)
    accounted = len(egressed) + shed + at_root
    if 0 <= injected - accounted <= loss_allowance:
        return []
    direction = "vanished without a ledger entry" if accounted < injected else (
        "over-accounted (double-counted shed or duplicated egress)"
    )
    return [
        InvariantViolation(
            "sheds-accounted",
            f"{abs(injected - accounted)} packets {direction}: "
            f"injected={injected}, egressed={len(egressed)}, "
            f"shed={shed}, at_root={at_root}",
        )
    ]


def check_recoveries_succeeded(supervisor) -> List[InvariantViolation]:
    """Every supervised recovery ran to completion."""
    violations: List[InvariantViolation] = []
    for record in supervisor.failed_recoveries():
        violations.append(
            InvariantViolation(
                "recovery-completed",
                f"{record.kind} recovery of {record.component} failed: "
                f"{record.error!r}",
            )
        )
    if supervisor.busy:
        violations.append(
            InvariantViolation(
                "recovery-completed",
                "recoveries still queued or running at end of run",
            )
        )
    return violations


def check_operation_converged(runtime) -> List[InvariantViolation]:
    """A finished planned operation left no transitional structure behind.

    Planned operations (rolling upgrade, store replacement, topology
    splice, hot reload — ``repro.ops``) move through transitional states:
    paused vertices, in-flight handovers, a lame-duck store beside its
    successor. This checker asserts the run *ended* convergent — every store
    name the routing layer can emit resolves to an alive component and no
    transition is still half-taken (instances: :func:`check_membership`).
    """
    violations: List[InvariantViolation] = []

    def _bad(detail: str) -> None:
        violations.append(InvariantViolation("operation-converged", detail))

    for vertex in sorted(runtime.splitters):
        if vertex not in runtime.chain.vertices:
            _bad(f"splitter for {vertex!r} outlives its removed vertex")
    if runtime._paused_vertices:
        _bad(f"vertices still input-paused: {sorted(runtime._paused_vertices)}")
    stuck_moves = handover.stuck_moves(runtime)
    if stuck_moves:
        _bad(f"handovers still in flight at end of run: {stuck_moves}")
    if runtime._sinks != set(runtime.chain.sinks()):
        _bad(
            f"sink cache {sorted(runtime._sinks)} diverged from topology "
            f"sinks {sorted(runtime.chain.sinks())}"
        )
    cluster_names = {store.name for store in runtime.store.instances}
    for store in runtime.store.instances:
        if not store.alive:
            _bad(f"cluster map still routes to dead store {store.name!r}")
        elif getattr(store, "lame_duck", False):
            _bad(f"store {store.name!r} left in lame-duck mode")
    for root in runtime.roots:
        if root.alive and root.store_endpoint not in cluster_names:
            _bad(
                f"{root.name} points at store {root.store_endpoint!r} "
                "outside the cluster map"
            )
    return violations


def check_no_downtime(
    windows: List[Tuple[float, int]],
    floor: int = 1,
    label: str = "operation",
) -> List[InvariantViolation]:
    """Goodput never fell below ``floor`` packets per sampled window.

    ``windows`` comes from the maintenance director's
    :class:`~repro.ops.director.GoodputMonitor`: ``(window start, egress
    count)`` pairs sampled *while a planned operation was executing*. A
    zero-loss operation is allowed to add latency, but a window with fewer
    than ``floor`` egress packets means the chain stalled under
    maintenance — downtime the operation promised not to cause.
    """
    violations: List[InvariantViolation] = []
    if not windows:
        violations.append(
            InvariantViolation(
                "no-downtime", f"{label}: no goodput windows were sampled"
            )
        )
        return violations
    for start_us, count in windows:
        if count < floor:
            violations.append(
                InvariantViolation(
                    "no-downtime",
                    f"{label}: window at t={start_us:.0f}us egressed {count} "
                    f"packets (floor {floor})",
                )
            )
    return violations


def _without_vertices(
    state: Dict[str, Any], vertices: Tuple[str, ...]
) -> Dict[str, Any]:
    if not vertices:
        return state
    kept: Dict[str, Any] = {}
    for key, value in state.items():
        try:
            vertex, _obj, _flow = parse_storage_key(key)
        except ValueError:
            vertex = key
        if vertex not in vertices:
            kept[key] = value
    return kept


def check_invariants(
    runtime,
    reference: Optional[RunSnapshot] = None,
    supervisor=None,
    loss_allowance: int = 0,
    expect_log_drained: bool = True,
    exclude_vertices: Tuple[str, ...] = (),
    director=None,
    downtime_floor: Optional[int] = 1,
    label: str = "operation",
    injected: Optional[int] = None,
) -> List[InvariantViolation]:
    """Run the battery after a disturbed run; returns every violation found.

    The core always runs: exactly-once, per-flow ordering, ownership,
    membership, flush give-ups and (``expect_log_drained``) the drained
    root log. Each argument adds its checks:

    * ``reference`` — loss-free state and egress completeness against that
      ideal-chain run, both within ``loss_allowance``; ``exclude_vertices``'
      state keys are left out of the state diff on both sides;
    * ``supervisor`` — membership forgives the instances it is still
      recovering, and every supervised recovery must have completed;
    * ``director`` (a :class:`~repro.ops.director.MaintenanceDirector`) —
      the run converged, goodput stayed at or above ``downtime_floor``
      (``None``: not checked) in every window sampled while an operation
      ran (violations name ``label``), and every recorded operation
      completed (an abort is a correct *response* to a stuck gate, but a
      scenario's plan is expected to finish);
    * ``injected`` — every injected packet left the chain or is in the
      drop ledger (overload, §8), within ``loss_allowance``.
    """
    egress = egress_records(runtime)
    violations: List[InvariantViolation] = []
    if injected is not None:
        violations += check_sheds_accounted(runtime, injected, loss_allowance)
    violations += check_exactly_once(egress)
    violations += check_flow_ordering(egress)
    violations += check_ownership(runtime)
    violations += check_membership(runtime, supervisor)
    violations += check_no_gaveups(runtime)
    if reference is not None:
        violations += check_loss_free_state(
            _without_vertices(chain_state(runtime), exclude_vertices),
            _without_vertices(reference.state, exclude_vertices),
            loss_allowance,
        )
        violations += check_egress_complete(egress, reference.egress, loss_allowance)
    if expect_log_drained:
        violations += check_log_drained(runtime)
    if supervisor is not None:
        violations += check_recoveries_succeeded(supervisor)
    if director is not None:
        violations += check_operation_converged(runtime)
        if downtime_floor is not None:
            violations += check_no_downtime(
                director.monitor.windows, floor=downtime_floor, label=label
            )
        for record in director.records:
            if record.status != "completed":
                violations.append(
                    InvariantViolation(
                        "operation-completed",
                        f"{record.kind}({record.target}) ended {record.status}"
                        + (f": {record.note}" if record.note else ""),
                    )
                )
    return violations
