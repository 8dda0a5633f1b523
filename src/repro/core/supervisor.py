"""Failure supervision: detection notifications -> recovery protocols (§5.4).

The paper's framework "immediately detects the failure" and launches the
matching recovery protocol. :class:`Supervisor` is that control loop: it is
registered as a failure observer (of a
:class:`~repro.simnet.failures.FailureInjector` or a
:class:`~repro.chaos.director.ChaosDirector`), classifies the failed
component, and drives the right protocol as a simulation process:

* a failed :class:`~repro.core.root.Root` -> :func:`fail_over_root`;
* a failed :class:`~repro.core.instance.NFInstance` -> :func:`fail_over_nf`;
* a failed :class:`~repro.store.datastore.DatastoreInstance` ->
  :func:`~repro.store.store_recovery.recover_store_instance` (consulting
  only surviving clients), then re-pointing every root at the replacement.

Recoveries are *serialized* in dependency order — root first, then store,
then NF — matching the correlated-failure protocol (§5.4 "Correlated
failures"): NF failover replays the root's log, so the root must be back
first; the replay's state ops need the store.

Every step is recorded in a
:class:`~repro.simnet.monitor.RecoveryTimeline`, which is what chaos
campaign reports read to build recovery-time distributions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.core.instance import NFInstance
from repro.core.recovery import fail_over_nf, fail_over_root
from repro.core.root import Root
from repro.simnet.engine import Event
from repro.simnet.monitor import RecoveryTimeline
from repro.store.datastore import DatastoreInstance
from repro.store.rehome import repoint
from repro.store.store_recovery import recover_store_instance

# Recovery dispatch order under correlated failures (lower runs first).
_PRIORITY = {"root": 0, "store": 1, "nf": 2}


@dataclass
class RecoveryRecord:
    """One supervised recovery, successful or not."""

    component: str
    kind: str  # "root" | "store" | "nf"
    detected_at: float
    started_at: float = 0.0
    finished_at: float = 0.0
    result: Any = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None

    @property
    def duration_us(self) -> float:
        return self.finished_at - self.started_at


class Supervisor:
    """Reacts to failure notifications by running recovery protocols.

    ``recovery_overrides`` maps a kind (``"root"`` / ``"store"`` / ``"nf"``)
    to an alternative generator function with the same signature as the
    default — chaos regression tests inject deliberately broken protocols
    here to prove the invariant checkers catch them.
    """

    def __init__(
        self,
        runtime,
        timeline: Optional[RecoveryTimeline] = None,
        recovery_overrides: Optional[Dict[str, Callable]] = None,
    ):
        self.runtime = runtime
        self.sim = runtime.sim
        self.timeline = timeline or RecoveryTimeline()
        self.records: List[RecoveryRecord] = []
        self._overrides = dict(recovery_overrides or {})
        self._queue: List[Tuple[int, int, str, Any]] = []
        self._seq = 0
        self._wake: Optional[Event] = None
        self._store_seq = 0
        self._running: List[Any] = []  # under recovery now (serialized: at most one)
        # Components already enqueued, held directly (identity semantics).
        # Holding the objects — not id() — keeps a strong reference, so a
        # GC'd component's reused address can never alias a new one
        # (chclint CHC004).
        self._handled: set = set()
        self._runner = self.sim.process(self._run(), name="supervisor")

    # ------------------------------------------------------------------
    # notification side (failure detector callback)
    # ------------------------------------------------------------------

    def component_name(self, component: Any) -> str:
        return getattr(component, "instance_id", None) or getattr(
            component, "name", repr(component)
        )

    def classify(self, component: Any) -> Optional[str]:
        if isinstance(component, Root):
            return "root"
        if isinstance(component, DatastoreInstance):
            return "store"
        if isinstance(component, NFInstance):
            return "nf"
        return None

    def on_failure(self, component: Any) -> None:
        """Failure-detector callback: enqueue the matching recovery."""
        kind = self.classify(component)
        name = self.component_name(component)
        if kind is None:
            self.timeline.record(self.sim.now, "detected", name, handled=False)
            return
        if component in self._handled:
            return  # already enqueued (dependency discovery beat the detector)
        if kind == "nf" and self.runtime.instances.get(
            getattr(component, "instance_id", None)
        ) is not component:
            # Orderly retirement (autoscaler scale-in, §8), not a crash:
            # the instance was already removed from the runtime's routing
            # with its state handed back. Nothing to recover.
            self._handled.add(component)
            self.timeline.record(self.sim.now, "retired", name, component_kind=kind)
            return
        if kind == "store" and component not in self.runtime.stores:
            # Planned store replacement (maintenance director): the node
            # was live-replaced — the cluster map (runtime.stores reads it)
            # and the roots point at its successor — and then torn down on
            # purpose. Its death is not a failure; recovering it would
            # resurrect a stale copy of the state beside the live one.
            self._handled.add(component)
            self.timeline.record(self.sim.now, "retired", name, component_kind=kind)
            return
        self._handled.add(component)
        # A plain FailureInjector notifies at the crash instant; a
        # ChaosDirector records "failed" itself and notifies later. Record
        # the crash here only if the detector didn't.
        if not any(
            e.component == name and e.kind == "failed" for e in self.timeline.events
        ):
            self.timeline.record(self.sim.now, "failed", name, component_kind=kind)
        self.timeline.record(self.sim.now, "detected", name, component_kind=kind)
        self._seq += 1
        heapq.heappush(self._queue, (_PRIORITY[kind], self._seq, kind, component))
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed(None)

    # ------------------------------------------------------------------
    # recovery side (one serialized process)
    # ------------------------------------------------------------------

    def _run(self) -> Generator:
        while True:
            if not self._queue:
                self._wake = self.sim.event(name="supervisor-wake")
                yield self._wake
                self._wake = None
                continue
            _priority, _seq, kind, component = heapq.heappop(self._queue)
            if self._discover_dependencies(kind):
                # a dependency is dead but its detection hasn't fired yet:
                # enqueue it (it sorts first) and retry this task after
                heapq.heappush(self._queue, (_priority, _seq, kind, component))
                continue
            self._running.append(component)
            try:
                yield from self._recover(kind, component)
            finally:
                self._running.remove(component)

    def _discover_dependencies(self, kind: str) -> int:
        """Probe the components a ``kind``-recovery depends on.

        NF failover replays the root's log and re-executes state ops; store
        recovery's re-executed commit signals target the root. A laggy
        heartbeat detector may not have declared those dead yet — but the
        recovery's first RPC to them would discover it, so model that probe
        here: any dead dependency is enqueued immediately (it outranks the
        dependent task in the priority order). Returns how many were found.
        """
        if kind == "root":
            return 0
        dead = [root for root in self.runtime.roots if not root.alive]
        if kind == "nf":
            dead += [store for store in self.runtime.stores if not store.alive]
        found = 0
        for component in dead:
            if component not in self._handled:
                self.on_failure(component)
                found += 1
        return found

    def _recover(self, kind: str, component: Any) -> Generator:
        name = self.component_name(component)
        record = RecoveryRecord(
            component=name, kind=kind, detected_at=self.sim.now, started_at=self.sim.now
        )
        self.records.append(record)
        self.timeline.record(self.sim.now, "recovery_started", name, component_kind=kind)
        protocol = self._overrides.get(kind) or getattr(self, f"_recover_{kind}")
        try:
            record.result = yield from protocol(self.runtime, component)
        except Exception as exc:  # recovery itself can fail (e.g. RpcGaveUp)
            record.error = exc
            record.finished_at = self.sim.now
            self.timeline.record(
                self.sim.now, "recovery_failed", name, component_kind=kind, error=repr(exc)
            )
            return
        record.finished_at = self.sim.now
        detail: Dict[str, Any] = {"component_kind": kind}
        replacement = getattr(record.result, "new_id", None) or getattr(
            getattr(record.result, "replacement", None), "name", None
        )
        if replacement:
            detail["replacement"] = replacement
        self.timeline.record(self.sim.now, "recovered", name, **detail)

    # --- default protocols -------------------------------------------

    @staticmethod
    def _recover_root(runtime, component: Root) -> Generator:
        result = yield from fail_over_root(runtime, root=component)
        return result

    @staticmethod
    def _recover_nf(runtime, component: NFInstance) -> Generator:
        result = yield from fail_over_nf(runtime, component.instance_id)
        return result

    def _recover_store(self, runtime, component: DatastoreInstance) -> Generator:
        self._store_seq += 1
        # A fresh name, not the old address: in-flight retries against the
        # old endpoint must keep failing until routing swaps to the fully
        # rebuilt replacement, then re-resolve to it via the cluster map.
        new_name = f"{component.name}r{self._store_seq}"
        clients = [i.client for i in runtime.instances.values() if i.alive]
        result = yield from recover_store_instance(
            self.sim, runtime.store, component, clients, new_name
        )
        # the recovery already swapped the cluster map
        repoint(runtime, component.name, result.replacement)
        return result

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while recoveries are queued or running."""
        return bool(self._queue or self._running)

    def recovering(self) -> List[Any]:
        """The components whose recovery is queued or running."""
        return [task[3] for task in self._queue] + self._running

    def failed_recoveries(self) -> List[RecoveryRecord]:
        return [record for record in self.records if record.error is not None]
