"""Generator-based discrete-event simulation engine.

The engine is deliberately small (a SimPy-flavoured core) but complete enough
to model the CHC dataplane: processes are Python generators that ``yield``
:class:`Event` objects; the simulator resumes them when the event fires.

Time is a ``float`` in **microseconds**. All ordering is deterministic: every
scheduled callback is keyed by ``(time, sequence_number)`` so two events
scheduled for the same instant fire in scheduling order, and no wall-clock or
unseeded randomness is consulted anywhere.

Hot-path design (see DESIGN.md "Engine performance model"):

* Zero-delay work — event callback delivery, process resumption, interrupts —
  goes onto a **microtask FIFO** (a ``deque``) instead of the time heap. A
  microtask's key is ``(now, seq)``, exactly what the heap would have used,
  and the run loop interleaves the two queues by that key, so the observable
  event order is bit-for-bit identical to a single-heap engine (the
  determinism regression test in ``tests/test_engine_hotpath.py`` proves it
  against a reference implementation).
* One wake-up, one event — **inline tail continuations**: where the engine
  would enqueue a callback as its last act before returning to the run
  loop (:meth:`Timeout._fire` with one waiter; :meth:`Process._step` parking
  on an already-fired event) and nothing else is due at this instant, it
  runs the callback right there. The microtask would have been the loop's
  very next pick, so the schedule is unchanged; only the counters move.
* :class:`DeadlineQueue` keeps timers that arrive in deadline order (flush
  retransmission checks, grace periods) behind a single armed heap entry,
  each still firing under the exact ``(time, seq)`` key ``schedule`` would
  have given it.
* :class:`Channel` stores items and parked getters in ``deque``s: ``put`` /
  ``get`` / ``put_front`` are O(1) where the seed engine paid O(n) per packet
  for ``list.pop(0)`` / ``insert(0)``.
* Every engine object declares ``__slots__``, and the run loops bind heap
  ops and queue methods to locals.

The simulator exposes cheap counters (``events_processed``,
``microtasks_processed``, ``heap_peak``; channels track ``depth_peak``)
surfaced through :mod:`repro.simnet.monitor` for perf harnesses.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple


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
        # Lazily created on first add_callback: most events (channel gets,
        # timeouts with a single waiter) carry 0–1 callbacks, and the empty
        # list showed up in hot-path allocation profiles.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = None
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
        self._value = value
        callbacks = self.callbacks
        if callbacks:
            # One microtask per waiter, keyed exactly as call_soon would.
            self.callbacks = None
            sim = self.sim
            seq = sim._seq
            append = sim._micro.append
            for callback in callbacks:
                append((seq, callback, (self,)))
                seq += 1
            sim._seq = seq
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
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = None
            call_soon = self.sim.call_soon
            for callback in callbacks:
                call_soon(callback, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event triggers (possibly now)."""
        if self._triggered:
            self.sim.call_soon(callback, self)
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> bool:
        """Detach a not-yet-delivered callback; returns whether it was found."""
        if not self.callbacks:
            return False
        try:
            self.callbacks.remove(callback)
            return True
        except ValueError:
            return False


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        # Event.__init__ spelled out, with a static name: timeouts are
        # created per packet per hop, and the super() call and a formatted
        # name were a measurable share of the hot path.
        self.sim = sim
        self.name = "timeout"
        self.callbacks = None
        self._triggered = False
        self._ok = True
        self._value = None
        sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        callbacks = self.callbacks  # non-empty only while untriggered
        sim = self.sim
        if (
            callbacks
            and len(callbacks) == 1
            and not sim._micro
            and (not sim._heap or sim._heap[0][0] > sim.now)
        ):
            # Inline tail continuation (DESIGN.md §5): nothing else is due
            # at this instant, so the microtask succeed() would enqueue is
            # the loop's very next pick — run the lone waiter right here.
            self.callbacks = None
            self._triggered = True
            self._value = value
            callbacks[0](self)
        else:
            self.succeed(value)


class AnyOf(Event):
    """Fires when the first of several events fires.

    The value is a ``(event, value)`` pair identifying which event won. A
    failed child event fails the :class:`AnyOf` with the child's exception.

    When the first child fires, the :class:`AnyOf` detaches its callback from
    every still-pending child, so losers no longer hold a reference to (or
    fire into) the triggered parent — e.g. the RPC retransmission path races
    a response against a timer per attempt, and the losing event of each
    race must not accumulate stale callbacks.
    """

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self._children: tuple = tuple(events)
        for event in self._children:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        children, self._children = self._children, ()
        for child in children:
            if child is not event and not child._triggered:
                child.remove_callback(self._on_child)
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
        sim.call_soon(self._step, None)

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
        self.sim.call_soon(self._step, None, Interrupt(cause))

    def _step(self, event: Optional[Event], exc: Optional[BaseException] = None) -> None:
        """Resume the generator: with ``event``'s outcome (the callback the
        process parked on it), or from the top / with ``exc`` thrown in
        when ``event`` is None (start, :meth:`interrupt`)."""
        if not self._alive:
            return
        value = None
        if event is not None:
            if event is not self._waiting_on:
                return  # stale wake-up (the process was interrupted since)
            if event._ok:
                value = event._value
            else:
                exc = event._value
        self._waiting_on = None
        sim = self.sim
        generator = self._generator
        while True:
            try:
                if exc is not None:
                    target = generator.throw(exc)
                else:
                    target = generator.send(value)
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
                    if not self.callbacks:
                        # Started fire-and-forget (every worker, store thread and
                        # root loop is): with nobody waiting, the failed event
                        # would be the only trace of the crash.
                        sim.crashed.append((self.name, error))
                    self.fail(error)
                return
            try:
                triggered = target._triggered
            except AttributeError:
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must yield Events"
                ) from None
            if not triggered:
                self._waiting_on = target
                if target.callbacks is None:
                    target.callbacks = [self._step]
                else:
                    target.callbacks.append(self._step)
                return
            if sim._micro or (sim._heap and sim._heap[0][0] <= sim.now):
                self._waiting_on = target
                sim.call_soon(self._step, target)
                return
            # Inline tail continuation (DESIGN.md §5): the event has already
            # fired (a get() on a non-empty channel) and nothing else is due
            # at this instant, so the resume this would enqueue is the
            # loop's very next pick — keep going without the round trip.
            if target._ok:
                value, exc = target._value, None
            else:
                value, exc = None, target._value


class Channel:
    """Unbounded FIFO channel with event-based ``get``.

    Models the framework-managed message queues between NF instances
    (§4.2). The framework can *operate on queue contents* — e.g. delete
    duplicate messages before they are consumed (§5.3) — via
    :meth:`remove_if`, and inspect depth via :func:`len` (used by straggler
    detection logic).

    Items and parked getters live in ``deque``s, so every queue operation on
    the packet path is O(1). ``depth_peak`` records the high-water mark of
    the queue (a free byproduct of ``put`` useful for perf forensics).

    A channel may be given a ``capacity``: :meth:`put` then refuses items
    (returns ``False``) once the backlog reaches the bound, and producers
    can park on :meth:`space_event` until a consumer drains an item.
    Control-plane traffic that must never be refused uses
    :meth:`put_forced`. The capacity machinery stays entirely off the hot
    path when unused (``capacity is None`` and no space waiters).
    """

    __slots__ = ("sim", "name", "capacity", "_items", "_getters",
                 "_space_waiters", "depth_peak")

    def __init__(self, sim: "Simulator", name: str = "",
                 capacity: Optional[int] = None):
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: deque = deque()
        self._getters: deque = deque()
        self._space_waiters: deque = deque()
        self.depth_peak = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> bool:
        """Enqueue ``item``; wakes one waiting getter if any.

        Returns ``False`` (item NOT enqueued) when the channel is bounded
        and full; otherwise ``True``. An item handed straight to a parked
        getter never counts against the bound.
        """
        items = self._items
        if (
            self.capacity is not None
            and not self._getters
            and len(items) >= self.capacity
        ):
            return False
        items.append(item)
        if self._getters:
            self._dispatch()
        elif len(items) > self.depth_peak:
            self.depth_peak = len(items)
        return True

    def put_forced(self, item: Any) -> None:
        """Enqueue ``item`` ignoring any capacity bound (control traffic)."""
        items = self._items
        items.append(item)
        if self._getters:
            self._dispatch()
        elif len(items) > self.depth_peak:
            self.depth_peak = len(items)

    def put_front(self, item: Any) -> None:
        """Enqueue ``item`` at the head (used when re-queuing after replay)."""
        self._items.appendleft(item)
        if self._getters:
            self._dispatch()
        elif len(self._items) > self.depth_peak:
            self.depth_peak = len(self._items)

    def _dispatch(self) -> None:
        getters, items = self._getters, self._items
        while getters and items:
            getters.popleft().succeed(items.popleft())
        if self._space_waiters:
            self.notify_space()

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim, self.name)
        items = self._items
        if items:
            # born triggered: nobody can be waiting on it yet
            event._triggered = True
            event._value = items.popleft()
            if self._space_waiters:
                self.notify_space()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Dequeue immediately, or return ``None`` if empty."""
        if self._items:
            item = self._items.popleft()
            if self._space_waiters:
                self.notify_space()
            return item
        return None

    def has_space(self) -> bool:
        """Whether an ordinary :meth:`put` would currently be accepted."""
        if self.capacity is None or self._getters:
            return True
        return len(self._items) < self.capacity

    def space_event(self) -> Event:
        """An event that fires once the channel can accept a :meth:`put`.

        Fires immediately when there is already room. Waiters are woken in
        FIFO order, one per slot freed, so competing producers make
        progress fairly.
        """
        event = Event(self.sim, name=self.name)
        if self.has_space():
            event.succeed(None)
        else:
            self._space_waiters.append(event)
        return event

    def notify_space(self) -> None:
        """Wake producers parked on :meth:`space_event` while there is room.

        Called on every dequeue; a server that takes an item without it
        ever entering the queue (an idle :class:`~repro.simnet.nic.Nic`)
        calls it for that item too, so no producer stays parked behind an
        empty queue. One waiter per free slot: a woken producer usually
        puts immediately, so over-waking would just thrash.
        """
        waiters = self._space_waiters
        while waiters and self.has_space():
            waiter = waiters.popleft()
            if not waiter.triggered:
                waiter.succeed(None)
                # The woken producer has not put yet; reserve its slot by
                # waking at most one waiter per notify round when bounded.
                if self.capacity is not None:
                    break

    def items(self) -> List[Any]:
        """A snapshot of queued items (read-only view for the framework)."""
        return list(self._items)

    def remove_if(self, predicate: Callable[[Any], bool]) -> int:
        """Delete queued items matching ``predicate``; returns count removed."""
        before = len(self._items)
        self._items = deque(item for item in self._items if not predicate(item))
        removed = before - len(self._items)
        if removed and self._space_waiters:
            self.notify_space()
        return removed

    def clear(self) -> int:
        removed = len(self._items)
        self._items.clear()
        if removed and self._space_waiters:
            self.notify_space()
        return removed


class DeadlineQueue:
    """Timers that share one callback and arrive in (nearly) deadline order,
    behind a **single** heap entry.

    The idiom for "after a timeout, check whether X still needs doing"
    armed once per packet or per operation (flush retransmission, the
    delete grace period): the deadlines are ``now + constant``, so they
    arrive sorted, and a deque with one armed heap entry at the head's due
    time replaces one heap entry per timer — the heap stays the size of
    the *live* schedule instead of filling with checks that will find
    nothing to do.

    Every timer fires at the bit-identical ``(time, seq)`` key
    ``Simulator.schedule`` would have given it: the absolute due time
    (``now + delay``, computed once) and the sequence number are fixed in
    :meth:`add`, and the heap entry armed for a timer carries exactly that
    key. A deadline earlier than the queue's tail (a lowered timeout, a
    shorter backoff) simply gets a heap entry of its own.

    ``settled(*args)``, if given, says a queued timer's callback would be a
    no-op (and will stay one); such timers are dropped when they reach the
    head, without costing an event. Timers due at the same instant with
    nothing else scheduled between them (one batch's grace periods) fire
    from one event, in order.
    """

    __slots__ = ("sim", "_callback", "_settled", "_entries")

    def __init__(
        self,
        sim: "Simulator",
        callback: Callable,
        settled: Optional[Callable[..., bool]] = None,
    ):
        self.sim = sim
        self._callback = callback
        self._settled = settled
        self._entries: deque = deque()  # (due, seq, args), sorted; head is armed

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, delay: float, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        due = sim.now + delay
        entries = self._entries
        if not entries:
            entries.append((due, seq, args))
            sim._push(due, seq, self._fire, ())
        elif due >= entries[-1][0]:
            entries.append((due, seq, args))
        else:
            sim._push(due, seq, self._callback, args)

    def _fire(self) -> None:
        entries = self._entries
        more = True
        while more:
            args = entries.popleft()[2]
            more = self._advance()  # before the callback, which may add()
            self._callback(*args)

    def _advance(self) -> bool:
        """Drop settled heads, then arm the new head and return False —
        unless it is due this very instant and is what the run loop would
        pick next (timers armed for one instant by one batch): then leave it
        queued and return True, for :meth:`_fire` to run without a round
        trip through the heap. Nothing a callback can schedule sorts before
        an already-queued key, so this is decided before the callback runs."""
        entries = self._entries
        settled = self._settled
        sim = self.sim
        while entries:
            due, seq, args = entries[0]
            if settled is not None and settled(*args):
                entries.popleft()
                continue
            heap = sim._heap
            micro = sim._micro
            if (
                due > sim.now
                or (micro and micro[0][0] < seq)
                or (heap and heap[0][0] <= due and heap[0][1] < seq)
            ):
                sim._push(due, seq, self._fire, ())
                return False
            return True
        return False


class Simulator:
    """The discrete event loop.

    ``now`` is virtual time in microseconds. Determinism: every callback is
    keyed by ``(time, seq)`` where ``seq`` is a monotone counter shared by
    the time heap and the microtask FIFO, and the run loop always executes
    the smallest key next.

    Invariants the microtask fast-path relies on:

    * heap entries never lie in the past (``time >= now`` whenever the loop
      is choosing what to run), and
    * a microtask's due time is the ``now`` at which it was enqueued, and the
      loop never advances ``now`` while a microtask is pending — so a
      pending microtask is always due exactly at ``now``.

    Hence the next callback is the microtask head unless the heap head is due
    at ``now`` with a smaller ``seq`` (scheduled earlier at this instant).

    ``_heap`` and ``_micro`` are private to this module (chclint CHC011):
    the inline tail continuations ask them "is anything else due now?",
    which is only meaningful from a call that returns straight to the loop.
    """

    __slots__ = (
        "now",
        "_heap",
        "_micro",
        "_seq",
        "events_processed",
        "microtasks_processed",
        "heap_peak",
        "crashed",
    )

    def __init__(self):
        # Virtual time, µs. Read-only outside this module; a plain attribute
        # because a property cost 59 calls per packet.
        self.now = 0.0
        self._heap: List[tuple] = []
        self._micro: deque = deque()
        self._seq = 0
        self.events_processed = 0
        self.microtasks_processed = 0
        self.heap_peak = 0
        # (process name, exception) of every process that died of an
        # exception nobody was waiting for — a bug, never a modelled
        # failure (fail-stop kills are ProcessKilled and not recorded).
        # Diagnostic only: not an engine counter, not part of any digest.
        self.crashed: List[Tuple[str, BaseException]] = []

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` microseconds."""
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            self._micro.append((seq, callback, args))
            return
        if delay < 0:
            self._seq = seq
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heap = self._heap
        heapq.heappush(heap, (self.now + delay, seq, callback, args))
        if len(heap) > self.heap_peak:
            self.heap_peak = len(heap)

    def _push(self, due: float, seq: int, callback: Callable, args: tuple) -> None:
        """Heap-insert under an already-allocated key (DeadlineQueue)."""
        heap = self._heap
        heapq.heappush(heap, (due, seq, callback, args))
        if len(heap) > self.heap_peak:
            self.heap_peak = len(heap)

    @property
    def heap_size(self) -> int:
        """Timers pending on the time heap right now."""
        return len(self._heap)

    def call_soon(self, callback: Callable, *args: Any) -> None:
        """Enqueue ``callback(*args)`` to run at the current instant.

        Equivalent to ``schedule(0.0, ...)`` minus the delay checks — this is
        the microtask fast-path used by event callback delivery and process
        resumption.
        """
        seq = self._seq
        self._seq = seq + 1
        self._micro.append((seq, callback, args))

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

    def deadline_queue(
        self, callback: Callable, settled: Optional[Callable[..., bool]] = None
    ) -> DeadlineQueue:
        """A :class:`DeadlineQueue` of ``callback`` timers on this simulator."""
        return DeadlineQueue(self, callback, settled)

    def run(self, until: Optional[float] = None, max_events: int = 200_000_000) -> float:
        """Run until both queues drain or ``until`` (µs) is reached.

        Returns the simulation time when the run stopped. ``max_events`` is a
        runaway-loop backstop, not a tuning knob.
        """
        heap = self._heap
        micro = self._micro
        heappop = heapq.heappop
        popleft = micro.popleft
        count = 0
        micro_count = 0
        now = self.now  # mirror of self.now; only this loop advances it
        try:
            while heap or micro:
                if micro and (
                    not heap or heap[0][0] > now or heap[0][1] > micro[0][0]
                ):
                    _seq, callback, args = popleft()
                    micro_count += 1
                else:
                    time = heap[0][0]
                    if until is not None and time > until:
                        self.now = until
                        return until
                    _time, _seq, callback, args = heappop(heap)
                    now = self.now = time
                callback(*args)
                count += 1
                if count > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; runaway simulation?"
                    )
        finally:
            self.events_processed += count
            self.microtasks_processed += micro_count
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def next_event_time(self) -> Optional[float]:
        """Due time of the earliest pending work, or None when idle.

        The distributed shard loop (repro.dist) paces virtual time against
        the wall clock and needs to know how long it may block on a socket
        before the simulation has something to do: a pending microtask is
        due *now*; otherwise the heap head bounds the sleep.
        """
        if self._micro:
            return self.now
        if self._heap:
            return self._heap[0][0]
        return None

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Start a process, run until *it* completes, return its value.

        Stops stepping as soon as the process triggers — background
        periodic processes (checkpoint loops, pollers) keep the heap
        non-empty forever and must not keep this call spinning.
        """
        proc = self.process(generator, name=name)
        heap = self._heap
        micro = self._micro
        heappop = heapq.heappop
        popleft = micro.popleft
        count = 0
        micro_count = 0
        now = self.now
        try:
            while (heap or micro) and not proc._triggered:
                if micro and (
                    not heap or heap[0][0] > now or heap[0][1] > micro[0][0]
                ):
                    _seq, callback, args = popleft()
                    micro_count += 1
                else:
                    time, _seq, callback, args = heappop(heap)
                    now = self.now = time
                callback(*args)
                count += 1
                if count > 200_000_000:
                    raise SimulationError("run_process exceeded event budget")
        finally:
            self.events_processed += count
            self.microtasks_processed += micro_count
        if not proc._triggered:
            raise SimulationError(f"process {proc.name!r} never completed (deadlock?)")
        if not proc._ok:
            if self.crashed and self.crashed[-1][1] is proc._value:
                self.crashed.pop()  # reported right here, to the caller
            raise proc._value
        return proc._value
