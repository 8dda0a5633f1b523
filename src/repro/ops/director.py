"""The maintenance director: planned operations with zero-loss gates.

Day-2 operations are the dual of chaos: the operator *chooses* to disturb
the chain, so there is no excuse for losing a packet or reordering a flow.
:class:`MaintenanceDirector` executes four operation families against a
live :class:`~repro.core.chain_runtime.ChainRuntime`, each as a
simulation-process generator whose every step is gated on an explicit
drain/quiesce confirmation before the next begins, with
abort-and-rollback when a gate times out:

* **rolling NF upgrade** (:meth:`~MaintenanceDirector.rolling_upgrade`) —
  per instance: spawn the replacement and
  :func:`~repro.core.handover.evacuate` the old instance onto it (every
  owned flow over the Figure-4 protocol; in the instant the old instance
  is idle the replacement takes its hash slot, so the hash partition never
  flips, and the old one is retired). A drain that exhausts its budget
  evacuates the *replacement* back onto the old instance instead.
* **store-node replacement** (:meth:`~MaintenanceDirector.replace_store`)
  — the whole-node case of the store re-homing protocol
  (:mod:`repro.store.rehome`): snapshot + routing swap in one sim
  instant, the old node goes lame duck, and teardown is gated on every
  identity it still commits reappearing on the replacement via client
  retransmission.
* **topology edit** (:meth:`~MaintenanceDirector.insert_vertex` /
  :meth:`~MaintenanceDirector.remove_vertex`) — splice an NF into or out
  of the chain mid-traffic. Insertion is order-safe bare (the new path is
  strictly longer); removal holds the runtime's vertex-input pause gate
  while the spliced-out vertex drains and disowns its per-flow state,
  because a bypass packet could otherwise overtake an in-flight one.
* **config hot-reload** (:meth:`~MaintenanceDirector.hot_reload`) — a
  registry of hot-applicable parameters with per-key appliers; old values
  are snapshotted first, and any failure rolls back everything already
  applied.

Every operation runs with the :class:`GoodputMonitor` armed, so the
``no-downtime`` invariant checker can prove the chain kept externalizing
packets through the whole procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.handover import evacuate, quiesce
from repro.simnet.network import HOP_LINK_US
from repro.store.rehome import Rehoming

#: hot_reload's settle gate: how long the new config runs before read-back.
RELOAD_SETTLE_US = 20.0


class OperationAborted(RuntimeError):
    """A gate failed and the operation was rolled back."""


@dataclass
class OperationStep:
    """One gated step inside a planned operation."""

    name: str
    started_at: float
    finished_at: float = 0.0
    ok: bool = True
    note: str = ""


@dataclass
class OperationRecord:
    """One planned operation, step by step."""

    kind: str  # rolling_upgrade | store_replace | topology_insert | ...
    target: str
    started_at: float
    finished_at: float = 0.0
    status: str = "running"  # running | completed | aborted
    steps: List[OperationStep] = field(default_factory=list)
    note: str = ""

    @property
    def duration_us(self) -> float:
        return self.finished_at - self.started_at


class GoodputMonitor:
    """Samples egress counts per window while an operation is running.

    Windows are only recorded while armed, so a quiet chain before/after
    maintenance never reads as downtime; the director arms the monitor for
    exactly the span of each operation.
    """

    def __init__(self, runtime, window_us: float = 100.0):
        self.runtime = runtime
        self.sim = runtime.sim
        self.window_us = window_us
        self.windows: List[Tuple[float, int]] = []
        self._armed = 0
        self._touched = False  # armed at any point inside the current window
        self._proc = self.sim.process(self._loop(), name="goodput-monitor")

    def arm(self) -> None:
        self._armed += 1
        self._touched = True

    def disarm(self) -> None:
        self._armed = max(0, self._armed - 1)

    def _egressed(self) -> int:
        return len(self.runtime.egress._items)

    def _loop(self) -> Generator:
        while True:
            start = self.sim.now
            base = self._egressed()
            armed_at_start = self._armed > 0
            self._touched = armed_at_start
            yield self.sim.timeout(self.window_us)
            if self._touched or self._armed > 0:
                # any window overlapping the armed span counts — including
                # an operation that starts AND finishes inside one window
                self.windows.append((start, self._egressed() - base))


class MaintenanceDirector:
    """Executes planned operations; see module docstring."""

    def __init__(
        self,
        runtime,
        drain_budget_us: float = 30_000.0,
        catchup_poll_us: float = 50.0,
        monitor_window_us: float = 100.0,
        monitor: Optional[GoodputMonitor] = None,
    ):
        self.runtime = runtime
        self.sim = runtime.sim
        self.drain_budget_us = drain_budget_us
        self.catchup_poll_us = catchup_poll_us
        self.monitor = monitor or GoodputMonitor(runtime, window_us=monitor_window_us)
        self.records: List[OperationRecord] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------

    def _begin(self, kind: str, target: str) -> OperationRecord:
        record = OperationRecord(kind=kind, target=target, started_at=self.sim.now)
        self.records.append(record)
        self.monitor.arm()
        return record

    def _finish(self, record: OperationRecord, status: str, note: str = "") -> None:
        record.status = status
        record.finished_at = self.sim.now
        if note:
            record.note = note
        self.monitor.disarm()

    def _step(self, record: OperationRecord, name: str) -> OperationStep:
        step = OperationStep(name=name, started_at=self.sim.now)
        record.steps.append(step)
        return step

    @staticmethod
    def _close(step: OperationStep, sim, ok: bool = True, note: str = "") -> None:
        step.finished_at = sim.now
        step.ok = ok
        if note:
            step.note = note

    def completed(self) -> List[OperationRecord]:
        return [r for r in self.records if r.status == "completed"]

    # ------------------------------------------------------------------
    # operation: rolling NF upgrade
    # ------------------------------------------------------------------

    def rolling_upgrade(
        self, vertex_name: str, nf_factory=None
    ) -> Generator:
        """Replace every instance of ``vertex_name`` one at a time.

        With ``nf_factory``, the vertex is re-pointed at the new factory
        first (a versioned upgrade: replacements and any later failovers
        run the new code); without it the upgrade is behavior-identical
        (the campaign's case, so invariants can compare against an
        undisturbed reference run). Simulation-process generator; returns
        the :class:`OperationRecord`.
        """
        record = self._begin("rolling_upgrade", vertex_name)
        vertex = self.runtime.chain.vertices[vertex_name]
        old_factory = vertex.nf_factory
        if nf_factory is not None:
            vertex.nf_factory = nf_factory
        try:
            for old_id in list(self.runtime.vertex_instances[vertex_name]):
                # one that crashed awaiting its turn is gone by now: its
                # failover replacement was built from the factory above
                if old_id in self.runtime.instances:
                    yield from self._upgrade_one(record, vertex_name, old_id)
        except OperationAborted as exc:
            if nf_factory is not None:
                vertex.nf_factory = old_factory
            self._finish(record, "aborted", note=str(exc))
            return record
        self._finish(record, "completed")
        return record

    def _upgrade_one(
        self, record: OperationRecord, vertex_name: str, old_id: str
    ) -> Generator:
        runtime = self.runtime
        self._seq += 1
        new_id = runtime.add_instance(vertex_name, suffix=f"u{self._seq}").instance_id

        step = self._step(record, f"handover:{old_id}->{new_id}")
        # flows to the replacement, which takes the old hash slot in the
        # instant the old instance is found idle (chclint CHC007 keeps
        # retirement inside handover.evacuate)
        moved, stuck = yield from evacuate(
            runtime,
            runtime.instances[old_id],
            lambda _key: new_id,
            deadline=self.sim.now + self.drain_budget_us,
            replace_with=new_id,
        )
        if stuck:
            self._close(step, self.sim, ok=False, note=stuck)
            failed = yield from self._rollback_upgrade(record, old_id, new_id)
            outcome = f"rollback: {failed}" if failed else "flows restored"
            raise OperationAborted(f"{old_id}: {stuck}; {outcome}")
        self._close(step, self.sim, note=f"{moved} keys moved")

    def _rollback_upgrade(
        self, record: OperationRecord, old_id: str, new_id: str
    ) -> Generator:
        """Reverse a half-done instance upgrade: flows back, retire the new.

        The replacement sits outside ``hash_members``, so once its flows are
        back nothing routes to it and its drain is monotone; if it still
        cannot finish, both instances stay (never roll forward, or back, on
        an unconfirmed gate).
        """
        step = self._step(record, f"rollback:{new_id}->{old_id}")
        _moved, stuck = yield from evacuate(
            self.runtime,
            self.runtime.instances[new_id],
            lambda _key: old_id,
            deadline=self.sim.now + self.drain_budget_us,
        )
        self._close(step, self.sim, ok=not stuck, note=stuck or "")
        return stuck

    # ------------------------------------------------------------------
    # operation: store-node replacement under traffic
    # ------------------------------------------------------------------

    def replace_store(self, store_name: str) -> Generator:
        """Live-replace one datastore node with zero lost updates.

        The whole-node case of :class:`repro.store.rehome.Rehoming`; this
        method only picks the names and cadence and keeps the step record.
        """
        record = self._begin("store_replace", store_name)
        self._seq += 1
        new_name = f"{store_name}m{self._seq}"

        step = self._step(record, f"swap:{store_name}->{new_name}")
        move = Rehoming(
            self.runtime,
            self.runtime.store.instance_named(store_name),
            new_name,
            seed=self.runtime.params.seed + self._seq,
        )
        self._close(step, self.sim, note=f"{len(move.covered)} log identities seeded")

        step = self._step(record, "catchup")
        stuck = yield from move.drain(self.catchup_poll_us, self.drain_budget_us)
        if stuck:
            # Never roll forward on an unconfirmed gate: the swap is
            # already safe (lame-duck forces retransmission of anything
            # uncovered), but record the failed confirmation.
            self._close(step, self.sim, ok=False, note=stuck)
            self._finish(record, "aborted", note=stuck)
            return record
        note = f"{len(move.pending)} pending flushes reconciled via retransmission"
        if not move.src.alive:  # chaos overlay; still zero loss
            note += "; old node crashed mid-catch-up"
        self._close(step, self.sim, note=note)

        step = self._step(record, f"teardown:{store_name}")
        move.finish()
        self._close(step, self.sim)
        self._finish(record, "completed")
        return record

    # ------------------------------------------------------------------
    # operation: topology edits
    # ------------------------------------------------------------------

    def insert_vertex(
        self,
        name: str,
        nf_factory,
        src: str,
        dst: str,
        parallelism: int = 1,
    ) -> Generator:
        """Splice a new NF onto the ``src -> dst`` edge mid-traffic.

        No pause gate is needed: the post-splice path is strictly longer
        than the pre-splice one, so a packet routed the old way can never
        be overtaken by a same-flow packet routed the new way.
        """
        record = self._begin("topology_insert", name)
        step = self._step(record, f"splice:{src}->{name}->{dst}")
        try:
            instances = self.runtime.splice_insert_vertex(
                name, nf_factory, src, dst, parallelism=parallelism
            )
        except (KeyError, ValueError) as exc:
            self._close(step, self.sim, ok=False, note=repr(exc))
            self._finish(record, "aborted", note=repr(exc))
            return record
        self._close(step, self.sim, note=f"{len(instances)} instances")
        # settle gate: the first packets through the new NF cold-miss its
        # state; one wire hop is enough for routing to be observably live
        step = self._step(record, "settle")
        yield self.sim.timeout(HOP_LINK_US)
        self._close(step, self.sim)
        self._finish(record, "completed")
        return record

    def remove_vertex(self, name: str) -> Generator:
        """Splice a mid-chain NF out, preserving per-flow order.

        Removal *shortens* the path, so a bypass packet could overtake an
        in-flight old-path packet; the pause gate holds all upstream
        emission into the vertex while it drains, disowns its state, and
        is spliced out — parked workers then re-resolve to the successor.
        """
        record = self._begin("topology_remove", name)
        runtime = self.runtime
        step = self._step(record, "pause")
        try:
            runtime.pause_vertex_input(name)
        except (KeyError, ValueError) as exc:
            self._close(step, self.sim, ok=False, note=repr(exc))
            self._finish(record, "aborted", note=repr(exc))
            return record
        self._close(step, self.sim)

        try:
            step = self._step(record, "drain")
            deadline = self.sim.now + self.drain_budget_us
            # behind the pause gate nothing new is dispatched to the vertex,
            # so an instance found idle stays idle until the splice
            for instance in runtime.instances_of(name):
                if not (yield from quiesce(runtime, instance, deadline)):
                    raise OperationAborted(
                        f"{instance.instance_id}: drain budget exceeded"
                    )
            self._close(step, self.sim)

            step = self._step(record, "disown")
            released = 0
            for instance in runtime.instances_of(name):
                for _sk, (obj_name, flow_key) in sorted(
                    instance.client.owned_items().items()
                ):
                    yield from instance.client.disassociate(obj_name, flow_key)
                    released += 1
            self._close(step, self.sim, note=f"{released} keys released")
        except OperationAborted as exc:
            self._close(step, self.sim, ok=False, note=str(exc))
            runtime.resume_vertex_input(name)  # rollback: vertex stays
            self._finish(record, "aborted", note=str(exc))
            return record

        step = self._step(record, "splice")
        runtime.splice_remove_vertex(name)
        self._close(step, self.sim)
        step = self._step(record, "resume")
        # after the splice, so parked workers re-resolve to the successor
        runtime.resume_vertex_input(name)
        self._close(step, self.sim)
        self._finish(record, "completed")
        return record

    # ------------------------------------------------------------------
    # operation: config hot-reload
    # ------------------------------------------------------------------

    def _reload_appliers(self) -> Dict[str, Any]:
        """Hot-reloadable parameter registry: key -> (getter, applier).

        Every applier writes the live objects *and* the params dataclass,
        so instances added after the reload inherit the new value too.
        """
        runtime = self.runtime

        def _set_overload_policy(value):
            runtime.params.overload_policy = value
            for instance in runtime.instances.values():
                instance.overload_policy = value

        def _set_nic_queue_limit(value):
            runtime.params.nic_queue_limit = value
            for nic in runtime.nics.values():
                nic.queue_limit = value

        def _set_retransmit_timeout(value):
            runtime.params.retransmit_timeout_us = value
            for instance in runtime.instances.values():
                instance.client.retransmit_timeout_us = value

        def _set_proc_time(value):
            runtime.params.proc_time_us = value
            for instance in runtime.instances.values():
                instance.proc_time_us = value

        def _set_checkpoint_interval(value):
            runtime.params.checkpoint_interval_us = value
            for store in runtime.store.instances:
                if store.checkpoint_interval_us:
                    # the running loop reads the attribute each cycle; a
                    # store built without a loop cannot grow one hot
                    store.checkpoint_interval_us = value

        return {
            "overload_policy": (
                lambda: runtime.params.overload_policy, _set_overload_policy
            ),
            "nic_queue_limit": (
                lambda: runtime.params.nic_queue_limit, _set_nic_queue_limit
            ),
            "retransmit_timeout_us": (
                lambda: runtime.params.retransmit_timeout_us, _set_retransmit_timeout
            ),
            "proc_time_us": (lambda: runtime.params.proc_time_us, _set_proc_time),
            "checkpoint_interval_us": (
                lambda: runtime.params.checkpoint_interval_us,
                _set_checkpoint_interval,
            ),
        }

    def hot_reload(self, changes: Dict[str, Any]) -> Generator:
        """Apply config ``changes`` without restarting anything.

        All-or-nothing: old values are snapshotted first; an unknown key
        (or an applier raising) rolls back every change already applied.
        """
        record = self._begin("hot_reload", ",".join(sorted(changes)))
        appliers = self._reload_appliers()
        step = self._step(record, "validate")
        unknown = sorted(set(changes) - set(appliers))
        if unknown:
            self._close(step, self.sim, ok=False, note=f"not hot-reloadable: {unknown}")
            self._finish(record, "aborted", note=f"not hot-reloadable: {unknown}")
            return record
        self._close(step, self.sim)

        step = self._step(record, "apply")
        applied: List[Tuple[str, Any]] = []
        try:
            for key in sorted(changes):
                getter, applier = appliers[key]
                applied.append((key, getter()))
                applier(changes[key])
        except Exception as exc:  # roll back what already landed
            for key, old_value in reversed(applied):
                appliers[key][1](old_value)
            self._close(step, self.sim, ok=False, note=repr(exc))
            self._finish(record, "aborted", note=repr(exc))
            return record
        self._close(step, self.sim, note=f"{len(applied)} params")

        # settle gate: a moment under the new config, then verify every
        # applier reads back the requested value
        step = self._step(record, "verify")
        yield self.sim.timeout(RELOAD_SETTLE_US)
        stale = [key for key in changes if appliers[key][0]() != changes[key]]
        if stale:
            for key, old_value in reversed(applied):
                appliers[key][1](old_value)
            self._close(step, self.sim, ok=False, note=f"did not stick: {stale}")
            self._finish(record, "aborted", note=f"did not stick: {stale}")
            return record
        self._close(step, self.sim)
        self._finish(record, "completed")
        return record
