"""The NIC as a generator process — the reference ``repro.simnet.nic.Nic``
is tested against (``tests/test_nic_monitor.py``).

This is the ``Nic`` class as it stood before the port became a
callback-driven FIFO server: a ``_drain`` process that ``get``s from the
ring, sleeps one serialisation time on a ``Timeout``, delivers, and parks
on ``deliver_wait()`` when the receiver refuses. Kept verbatim (only the
class name changed) so send schedules can be replayed on both and the
deliver instants, drops and counters compared — the ``benchmarks/
legacy_engine.py`` precedent. Not used by the simulator.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.analysis import runtime as _sanitize
from repro.simnet.engine import Channel, Event, Simulator
from repro.simnet.nic import GBPS_TO_BITS_PER_US


class DrainNic:
    """A FIFO transmit queue drained at ``rate_gbps``.

    ``deliver`` is invoked with each item once its serialisation delay has
    elapsed. ``queue_limit`` (packets) models a finite ring: when exceeded,
    new packets are dropped, counted (tail drop), and reported via
    ``on_drop``.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_gbps: float,
        deliver: Callable[[Any], Any],
        name: str = "nic",
        queue_limit: Optional[int] = None,
        per_packet_overhead_bits: int = 0,
        on_drop: Optional[Callable[[Any], None]] = None,
        never_drop: Optional[Callable[[Any], bool]] = None,
        deliver_wait: Optional[Callable[[], Event]] = None,
        wait_labels: Optional[tuple] = None,
    ):
        self.sim = sim
        self.name = name
        # (this NIC's wait-graph node, its receiver's node) — used by the
        # deadlock sanitizer when the drain parks on ``deliver_wait``.
        self.wait_labels = wait_labels or (f"nic:{name}", f"rx:{name}")
        self.rate_bits_per_us = rate_gbps * GBPS_TO_BITS_PER_US
        self.deliver = deliver
        self.queue_limit = queue_limit
        self.per_packet_overhead_bits = per_packet_overhead_bits
        self.on_drop = on_drop
        self.never_drop = never_drop
        self.deliver_wait = deliver_wait
        self._queue = Channel(sim, name=f"{name}-txq", capacity=queue_limit)
        self.tx_packets = 0
        self.tx_bits = 0
        self.drops = 0
        self.deliver_stalls = 0
        self._alive = True
        sim.process(self._drain(), name=f"{name}-drain")

    @property
    def txq_depth_peak(self) -> int:
        """High-water mark of the transmit ring (perf forensics)."""
        return self._queue.depth_peak

    def fail(self) -> None:
        self._alive = False
        self._queue.clear()

    def has_space(self) -> bool:
        """Whether :meth:`send` would currently be accepted (not tail drop)."""
        return self._alive and self._queue.has_space()

    def space_event(self) -> Event:
        """Event firing when the ring can accept a packet (backpressure)."""
        return self._queue.space_event()

    def send(self, item: Any, size_bits: int) -> bool:
        """Enqueue ``item`` for transmission; returns False on tail drop."""
        if not self._alive:
            return False
        if self.never_drop is not None and self.never_drop(item):
            # Control-plane traffic (handover markers) bypasses the bound:
            # losing a marker would wedge the Figure-4 barrier.
            self._queue.put_forced((item, size_bits))
            return True
        if not self._queue.put((item, size_bits)):
            self.drops += 1
            if self.on_drop is not None:
                self.on_drop(item)
            return False
        return True

    def _drain(self):
        while True:
            item, size_bits = yield self._queue.get()
            if not self._alive:
                return
            wire_bits = size_bits + self.per_packet_overhead_bits
            yield self.sim.timeout(wire_bits / self.rate_bits_per_us)
            if not self._alive:
                return
            while True:
                accepted = self.deliver(item)
                # Legacy receivers return None (always accept); a bounded
                # receiver returns False to push back.
                if accepted is False and self.deliver_wait is not None:
                    self.deliver_stalls += 1
                    suite = _sanitize.ACTIVE
                    if suite is not None:
                        suite.wait_edge(self.sim, *self.wait_labels)
                    try:
                        yield self.deliver_wait()
                    finally:
                        if suite is not None:
                            suite.release_edge(*self.wait_labels)
                    if not self._alive:
                        return
                    continue
                break
            self.tx_packets += 1
            self.tx_bits += size_bits
