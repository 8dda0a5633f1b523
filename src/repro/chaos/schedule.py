"""Fault schedules: what goes wrong, and when.

A :class:`Schedule` is an ordered list of fault actions with absolute
simulation times. Scenarios script them directly; randomized campaigns draw
them from :func:`random_schedule` with a seed, so every run is exactly
reproducible.

Actions deliberately name *roles*, not concrete components ("an alive
instance of vertex X", "the store holding vertex X's state"): the director
resolves them against the runtime at execution time, so a schedule stays
valid across failovers that rename components mid-run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


@dataclass
class FaultAction:
    """Base: something bad happening at ``at_us`` (absolute sim time)."""

    at_us: float


@dataclass
class CrashNF(FaultAction):
    """Fail-stop an NF instance.

    ``instance_id`` pins a concrete target; otherwise a random alive
    instance of ``vertex`` (or of any vertex when that is ``None`` too) is
    chosen at execution time with the director's seeded RNG. With
    ``newest`` set, the *most recently registered* matching instance is
    chosen instead of a random one — maintenance-overlay scenarios use it
    to crash the replacement an in-progress rolling upgrade just spawned.
    """

    vertex: Optional[str] = None
    instance_id: Optional[str] = None
    newest: bool = False


@dataclass
class CrashRoot(FaultAction):
    """Fail-stop a root instance (by ``root_id``)."""

    root_id: int = 0


@dataclass
class CrashStore(FaultAction):
    """Fail-stop a datastore instance (by name, or a random alive one)."""

    name: Optional[str] = None


@dataclass
class Partition(FaultAction):
    """Partition the fabric into named groups for ``duration_us``.

    Groups are role selectors resolved at execution time: ``"nfs"`` (every
    alive NF instance), ``"stores"``, ``"roots"``, or a concrete endpoint
    name. Endpoints in no group communicate freely with everyone.
    """

    groups: Sequence[Sequence[str]] = ()
    duration_us: float = 1_000.0


@dataclass
class LinkLossBurst(FaultAction):
    """A window of random message loss on matching (src, dst) traffic."""

    loss: float = 0.05
    duration_us: Optional[float] = None  # None = until the end of the run
    src: Optional[str] = None
    dst: Optional[str] = None


@dataclass
class LatencySpike(FaultAction):
    """A window of added latency / jitter on matching traffic."""

    extra_latency_us: float = 0.0
    jitter_us: float = 0.0
    duration_us: Optional[float] = None
    src: Optional[str] = None
    dst: Optional[str] = None


@dataclass
class Heal(FaultAction):
    """Remove the current partition (if any)."""


@dataclass
class Schedule:
    """An ordered fault script."""

    actions: List[FaultAction] = field(default_factory=list)

    def add(self, action: FaultAction) -> "Schedule":
        self.actions.append(action)
        return self

    def sorted(self) -> List[FaultAction]:
        return sorted(self.actions, key=lambda a: a.at_us)


def random_schedule(
    seed: int,
    window_us: Tuple[float, float],
    n_faults: int = 2,
    crash_weight: float = 0.5,
    partition_weight: float = 0.25,
    degrade_weight: float = 0.25,
    max_crashes: int = 2,
) -> Schedule:
    """Draw a reproducible random schedule inside ``window_us``.

    Fault kinds are drawn by weight; crash targets stay role-based (random
    NF / root / store), so the same seed gives the same schedule for any
    topology. ``max_crashes`` bounds correlated-crash pile-ups — the paper's
    model recovers any single failure and specific pairs, not arbitrary
    simultaneous loss of every replica.
    """
    rng = random.Random(seed)
    start, end = window_us
    schedule = Schedule()
    crashes = 0
    kinds = ["crash", "partition", "degrade"]
    weights = [crash_weight, partition_weight, degrade_weight]
    for _ in range(n_faults):
        at = start + rng.random() * (end - start)
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "crash" and crashes < max_crashes:
            crashes += 1
            which = rng.choice(["nf", "nf", "root", "store"])
            if which == "nf":
                schedule.add(CrashNF(at_us=at))
            elif which == "root":
                schedule.add(CrashRoot(at_us=at))
            else:
                schedule.add(CrashStore(at_us=at))
        elif kind == "partition":
            schedule.add(
                Partition(
                    at_us=at,
                    groups=(("nfs",), ("stores",)),
                    duration_us=500.0 + rng.random() * 1_500.0,
                )
            )
        else:
            if rng.random() < 0.5:
                schedule.add(
                    LinkLossBurst(
                        at_us=at,
                        loss=0.02 + rng.random() * 0.08,
                        duration_us=500.0 + rng.random() * 2_000.0,
                    )
                )
            else:
                schedule.add(
                    LatencySpike(
                        at_us=at,
                        extra_latency_us=20.0 + rng.random() * 80.0,
                        jitter_us=rng.random() * 30.0,
                        duration_us=500.0 + rng.random() * 2_000.0,
                    )
                )
    return schedule
