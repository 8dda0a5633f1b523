"""Fail-stop failure injection (§5.4 failure model).

The paper assumes "the standard fail-stop model, that a machine/node can
crash at any time and that the other machines/nodes in the system can
immediately detect the failure". The injector schedules crashes at chosen
simulation times and immediately notifies registered observers, who run the
relevant recovery protocol.
"""

from __future__ import annotations

from typing import Any, Callable, List, Protocol, runtime_checkable

from repro.simnet.engine import Simulator


@runtime_checkable
class Failable(Protocol):
    """Anything that can fail-stop."""

    def fail(self) -> None: ...


class FailureInjector:
    """Schedules fail-stop crashes and dispatches immediate detection.

    ``on_failure(component)`` observers model the cluster's instantaneous
    failure detector; they typically launch failover (a new NF instance, a
    new root, or a new datastore instance).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._observers: List[Callable[[Any], None]] = []
        self.failed: List[Any] = []

    def on_failure(self, observer: Callable[[Any], None]) -> None:
        self._observers.append(observer)

    def fail_now(self, component: Failable) -> None:
        """Crash ``component`` immediately and notify observers.

        Idempotent: a component that already failed (either through this
        injector or because something else called its ``fail()``) is not
        re-crashed and observers are not re-notified — a randomized chaos
        schedule may legitimately pick the same target twice.
        """
        if any(component is seen for seen in self.failed):
            return
        if getattr(component, "alive", True) is False:
            # crashed out-of-band; record it but don't double-notify
            self.failed.append(component)
            return
        component.fail()
        self.failed.append(component)
        self._notify(component)

    def _notify(self, component: Failable) -> None:
        """Dispatch detection. The base injector models the paper's
        instantaneous detector; subclasses may insert detection latency."""
        for observer in self._observers:
            observer(component)

    def fail_at(self, time_us: float, component: Failable) -> None:
        """Crash ``component`` at absolute simulation time ``time_us``.

        ``time_us == sim.now`` is allowed (the crash lands on the microtask
        queue of the current instant) so schedules can be armed from inside
        event callbacks without off-by-now errors.
        """
        delay = time_us - self.sim.now
        if delay < 0:
            raise ValueError(f"fail_at({time_us}) is in the past (now={self.sim.now})")
        self.sim.schedule(delay, self.fail_now, component)
