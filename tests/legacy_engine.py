"""Faithful copy of the PRE-OVERHAUL simulation engine (the repo seed).

The reference ``repro.simnet.engine`` is replayed against: the hypothesis
tie-storm tests in ``tests/test_engine_hotpath.py`` run the same
process / timeout / channel / kill / interrupt programs on both engines
and require identical traces, so the engine's inline tail continuations
and microtask FIFO stay invisible to any schedule. Not used by the
simulator. Do not "fix" it: one heap, every wake-up enqueued, is the
semantics the current engine must reproduce.

Snapshot of ``src/repro/simnet/engine.py`` as of the seed commit, verbatim
below the original docstring.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine."""


class ProcessKilled(Exception):
    """Thrown into a process generator when it is killed (fail-stop)."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* once :meth:`succeed` or :meth:`fail` is called;
    waiting processes are resumed at the current simulation time.
    """

    __slots__ = ("sim", "callbacks", "_triggered", "_ok", "_value", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._ok = True
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self._schedule_callbacks()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception; waiters have it raised."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("Event.fail() requires an exception")
        self._triggered = True
        self._ok = False
        self._value = exc
        self._schedule_callbacks()
        return self

    def _schedule_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            self.sim.schedule(0.0, callback, self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event triggers (possibly now)."""
        if self._triggered:
            self.sim.schedule(0.0, callback, self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(sim, name=f"timeout({delay})")
        sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        self.succeed(value)


class AnyOf(Event):
    """Fires when the first of several events fires.

    The value is a ``(event, value)`` pair identifying which event won. A
    failed child event fails the :class:`AnyOf` with the child's exception.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        for event in events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event.ok:
            self.succeed((event, event.value))
        else:
            self.fail(event.value)


class AllOf(Event):
    """Fires when every child event has fired successfully."""

    __slots__ = ("_pending", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        events = list(events)
        self._pending = len(events)
        self._values: List[Any] = [None] * len(events)
        if not events:
            self.succeed([])
            return
        for index, event in enumerate(events):
            event.add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Event], None]:
        def on_child(event: Event) -> None:
            if self._triggered:
                return
            if not event.ok:
                self.fail(event.value)
                return
            self._values[index] = event.value
            self._pending -= 1
            if self._pending == 0:
                self.succeed(list(self._values))

        return on_child


class Process(Event):
    """Drives a generator; itself an event that fires when the body returns.

    Killing a process (:meth:`kill`) models fail-stop crashes: the generator
    is abandoned immediately and never resumed, and pending wake-ups for it
    are ignored.
    """

    __slots__ = ("_generator", "_alive", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._alive = True
        self._waiting_on: Optional[Event] = None
        sim.schedule(0.0, self._step, None, None)

    @property
    def alive(self) -> bool:
        return self._alive

    def kill(self) -> None:
        """Fail-stop the process: it never runs again."""
        if not self._alive:
            return
        self._alive = False
        self._waiting_on = None
        self._generator.close()
        if not self._triggered:
            self.fail(ProcessKilled(self.name))

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its wait point."""
        if not self._alive:
            return
        self.sim.schedule(0.0, self._step, None, Interrupt(cause))

    def _resume(self, event: Event) -> None:
        if not self._alive or event is not self._waiting_on:
            return  # stale wake-up (process was killed or interrupted)
        self._waiting_on = None
        if event.ok:
            self._step(event.value, None)
        else:
            self._step(None, event.value)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if not self._alive:
            return
        self._waiting_on = None
        try:
            if exc is not None:
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self._alive = False
            if not self._triggered:
                self.succeed(stop.value)
            return
        except ProcessKilled:
            self._alive = False
            if not self._triggered:
                self.fail(ProcessKilled(self.name))
            return
        except BaseException as error:  # noqa: BLE001 - a crashed process
            # fails its Process event instead of unwinding the event loop.
            self._alive = False
            if not self._triggered:
                self.fail(error)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Events"
            )
        self._waiting_on = target
        target.add_callback(self._resume)


class Channel:
    """Unbounded FIFO channel with event-based ``get``.

    Models the framework-managed message queues between NF instances
    (§4.2). The framework can *operate on queue contents* — e.g. delete
    duplicate messages before they are consumed (§5.3) — via
    :meth:`remove_if`, and inspect depth via :func:`len` (used by straggler
    detection logic).
    """

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._items: List[Any] = []
        self._getters: List[Event] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue ``item``; wakes one waiting getter if any."""
        self._items.append(item)
        self._dispatch()

    def put_front(self, item: Any) -> None:
        """Enqueue ``item`` at the head (used when re-queuing after replay)."""
        self._items.insert(0, item)
        self._dispatch()

    def _dispatch(self) -> None:
        while self._getters and self._items:
            getter = self._getters.pop(0)
            getter.succeed(self._items.pop(0))

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim, name=f"get({self.name})")
        if self._items:
            event.succeed(self._items.pop(0))
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Dequeue immediately, or return ``None`` if empty."""
        if self._items:
            return self._items.pop(0)
        return None

    def items(self) -> List[Any]:
        """A snapshot of queued items (read-only view for the framework)."""
        return list(self._items)

    def remove_if(self, predicate: Callable[[Any], bool]) -> int:
        """Delete queued items matching ``predicate``; returns count removed."""
        before = len(self._items)
        self._items = [item for item in self._items if not predicate(item)]
        return before - len(self._items)

    def clear(self) -> int:
        removed = len(self._items)
        self._items = []
        return removed


class Simulator:
    """The discrete event loop.

    ``now`` is virtual time in microseconds. Determinism: the heap is keyed
    by ``(time, seq)`` where ``seq`` is a monotone counter.
    """

    def __init__(self):
        self._now = 0.0
        self._heap: List[tuple] = []
        self._seq = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + delay, self._seq, callback, args))
        self._seq += 1

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a process driving ``generator``; returns its Process event."""
        return Process(self, generator, name=name)

    def run(self, until: Optional[float] = None, max_events: int = 200_000_000) -> float:
        """Run until the heap drains or ``until`` (µs) is reached.

        Returns the simulation time when the run stopped. ``max_events`` is a
        runaway-loop backstop, not a tuning knob.
        """
        count = 0
        while self._heap:
            time, _seq, callback, args = self._heap[0]
            if until is not None and time > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            self._now = time
            callback(*args)
            count += 1
            if count > max_events:
                raise SimulationError(f"exceeded {max_events} events; runaway simulation?")
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Start a process, run until *it* completes, return its value.

        Stops stepping as soon as the process triggers — background
        periodic processes (checkpoint loops, pollers) keep the heap
        non-empty forever and must not keep this call spinning.
        """
        proc = self.process(generator, name=name)
        count = 0
        while self._heap and not proc.triggered:
            time, _seq, callback, args = heapq.heappop(self._heap)
            self._now = time
            callback(*args)
            count += 1
            if count > 200_000_000:
                raise SimulationError("run_process exceeded event budget")
        if not proc.triggered:
            raise SimulationError(f"process {proc.name!r} never completed (deadlock?)")
        if not proc.ok:
            raise proc.value
        return proc.value
