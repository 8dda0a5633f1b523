"""Vertex managers: statistics aggregation for operator logic (§3).

"Operators must supply relevant logic for each vertex (scaling, identifying
stragglers). CHC executes the logic with input from a vertex manager, a
logical entity responsible for collecting statistics from each vertex's
instances, aggregating them, and providing them periodically to the
logic."

The manager polls its vertex's instances, builds :class:`InstanceReport`
rows, and invokes the operator-supplied callbacks. Whatever the callbacks
return is forwarded to registered action handlers (the chain runtime / the
experiment harness decides what to do — the paper is explicit that the
*logic* is the operator's, only the state management during the resulting
action is CHC's concern).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.simnet.engine import Simulator


@dataclass
class InstanceReport:
    """One instance's statistics snapshot."""

    instance_id: str
    queue_depth: int
    processed: int
    processed_delta: int
    mean_latency_us: Optional[float]


@dataclass
class ManagerEvent:
    at: float
    kind: str  # "scale" | "straggler"
    detail: Any


class VertexManager:
    """Periodically aggregates one vertex's instance statistics."""

    def __init__(
        self,
        sim: Simulator,
        vertex_name: str,
        instances_fn: Callable[[], List],
        interval_us: float = 1_000.0,
        scaling_logic: Optional[Callable[[List[InstanceReport]], Any]] = None,
        straggler_logic: Optional[Callable[[List[InstanceReport]], Any]] = None,
    ):
        self.sim = sim
        self.vertex_name = vertex_name
        self.instances_fn = instances_fn
        self.interval_us = interval_us
        self.scaling_logic = scaling_logic
        self.straggler_logic = straggler_logic
        self.events: List[ManagerEvent] = []
        self.history: List[List[InstanceReport]] = []
        self.on_scale: List[Callable[[Any], None]] = []
        self.on_straggler: List[Callable[[Any], None]] = []
        self._last_processed: Dict[str, int] = {}
        self._alive = True
        self._process = sim.process(self._loop(), name=f"vm-{vertex_name}")

    def stop(self) -> None:
        self._alive = False
        self._process.kill()

    def snapshot(self) -> List[InstanceReport]:
        reports = []
        for instance in self.instances_fn():
            last = self._last_processed.get(instance.instance_id, 0)
            processed = instance.stats.processed
            recent = instance.recorder.values[-200:]
            reports.append(
                InstanceReport(
                    instance_id=instance.instance_id,
                    queue_depth=instance.queue_depth,
                    processed=processed,
                    processed_delta=processed - last,
                    mean_latency_us=(sum(recent) / len(recent)) if recent else None,
                )
            )
            self._last_processed[instance.instance_id] = processed
        return reports

    def _loop(self) -> Generator:
        while self._alive:
            yield self.sim.timeout(self.interval_us)
            reports = self.snapshot()
            self.history.append(reports)
            if self.scaling_logic is not None:
                decision = self.scaling_logic(reports)
                if decision:
                    self.events.append(ManagerEvent(self.sim.now, "scale", decision))
                    for handler in self.on_scale:
                        handler(decision)
            if self.straggler_logic is not None:
                suspect = self.straggler_logic(reports)
                if suspect:
                    self.events.append(ManagerEvent(self.sim.now, "straggler", suspect))
                    for handler in self.on_straggler:
                        handler(suspect)


def default_straggler_logic(threshold: float = 0.5) -> Callable[[List[InstanceReport]], Any]:
    """The paper's footnote heuristic: an instance processing ``threshold``
    fraction slower than its peers is a straggler."""

    def logic(reports: List[InstanceReport]):
        if len(reports) < 2:
            return None
        rates = {r.instance_id: r.processed_delta for r in reports}
        fastest = max(rates.values())
        if fastest <= 0:
            return None
        for instance_id, rate in sorted(rates.items()):
            if rate < fastest * (1 - threshold):
                return instance_id
        return None

    return logic


def default_scaling_logic(
    queue_threshold: int = 1_000,
    low_threshold: Optional[int] = None,
    settle_intervals: int = 3,
) -> Callable[[List[InstanceReport]], Any]:
    """Scale up when aggregate backlog exceeds a threshold (θ of §3).

    With ``low_threshold`` set, also proposes scale-down after
    ``settle_intervals`` consecutive low-backlog observations with more
    than one instance running — hysteresis so a transient lull between
    bursts doesn't thrash the autoscaler. Defaults leave the seed
    behaviour (scale-up only) untouched.
    """
    calm = {"count": 0}

    def logic(reports: List[InstanceReport]):
        backlog = sum(r.queue_depth for r in reports)
        if backlog > queue_threshold:
            calm["count"] = 0
            return {"action": "scale_up", "backlog": backlog}
        if low_threshold is not None and len(reports) > 1 and backlog <= low_threshold:
            calm["count"] += 1
            if calm["count"] >= settle_intervals:
                calm["count"] = 0
                return {"action": "scale_down", "backlog": backlog}
        else:
            calm["count"] = 0
        return None

    return logic
