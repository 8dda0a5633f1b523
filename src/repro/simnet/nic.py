"""Bandwidth-limited egress queue, modelling a NIC port.

Throughput experiments (Figure 10) need a line-rate ceiling: a traditional
NF is CPU/NIC bound near 9.5Gbps, while an NF blocked on per-packet store
RTTs drains far below line rate. The :class:`Nic` serialises transmissions
at a configured rate and exposes counters for goodput measurement.

Overload semantics (§8 of DESIGN): a finite ring (``queue_limit``) tail
drops, and every drop is reported through ``on_drop`` so the runtime can
fold it into the Network per-cause ledger — ring drops are never silent.
``never_drop`` exempts control-plane items (handover markers) from tail
drop, and ``deliver_wait`` lets the receiving NF push back: when
``deliver`` returns ``False`` the port parks until the receiver has
space, which in turn fills this ring and slows *its* upstream — hop-by-hop
backpressure.

The port is a callback-driven FIFO server, not a process (DESIGN.md §5,
§8): one scheduled completion per item, no wake-ups in between.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.analysis import runtime as _sanitize
from repro.simnet.engine import Channel, Event, Simulator

GBPS_TO_BITS_PER_US = 1_000.0  # 1 Gbps == 1000 bits per microsecond

#: The calibrated port every NF instance (and every traditional-baseline
#: stage) is built with (DESIGN.md §4): 10 Gbps line rate, plus 600 bits of
#: per-packet framing (preamble, inter-frame gap, headers) on the wire —
#: what brings MTU-sized goodput down to ~9.5 Gbps.
NIC_RATE_GBPS = 10.0
NIC_OVERHEAD_BITS = 600


class Nic:
    """A FIFO transmit queue served at ``rate_gbps``.

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
        # deadlock sanitizer while the server is parked on ``deliver_wait``.
        self.wait_labels = wait_labels or (f"nic:{name}", f"rx:{name}")
        self.rate_bits_per_us = rate_gbps * GBPS_TO_BITS_PER_US
        self.deliver = deliver
        self.queue_limit = queue_limit
        self.per_packet_overhead_bits = per_packet_overhead_bits
        self.on_drop = on_drop
        self.never_drop = never_drop
        self.deliver_wait = deliver_wait
        # The ring holds what waits behind the item on the wire; the item
        # being serialised has left it (so a ring of N admits N + 1).
        self._queue = Channel(sim, name=f"{name}-txq", capacity=queue_limit)
        self._busy = False  # an item is on the wire, or parked on the receiver
        # the deadlock sanitizer holding this port's edge while it is parked
        self._parked_in: Any = None
        self.tx_packets = 0
        self.tx_bits = 0
        self.drops = 0
        self.deliver_stalls = 0
        self._alive = True

    @property
    def txq_depth_peak(self) -> int:
        """High-water mark of the transmit ring (perf forensics)."""
        return self._queue.depth_peak

    def fail(self) -> None:
        self._alive = False
        self._queue.clear()
        self._unpark()

    def has_space(self) -> bool:
        """Whether :meth:`send` would currently be accepted (not tail drop)."""
        return self._alive and (not self._busy or self._queue.has_space())

    def space_event(self) -> Event:
        """Event firing when the ring can accept a packet (backpressure)."""
        return self._queue.space_event()

    def send(self, item: Any, size_bits: int) -> bool:
        """Hand ``item`` to the port; returns False on tail drop.

        An idle port starts serialising at once; a busy one queues the item
        on the ring.
        """
        if not self._alive:
            return False
        if not self._busy:
            self._busy = True
            self._serialise(item, size_bits)
            # it went past the ring, not around its bookkeeping: a producer
            # still parked on space_event() gets its wake-up
            self._queue.notify_space()
            return True
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

    def _serialise(self, item: Any, size_bits: int) -> None:
        wire_bits = size_bits + self.per_packet_overhead_bits
        self.sim.schedule(
            wire_bits / self.rate_bits_per_us, self._transmitted, item, size_bits
        )

    def _transmitted(self, item: Any, size_bits: int) -> None:
        """``item``'s last bit left the wire: hand it over, start the next."""
        if not self._alive:
            return
        # Legacy receivers return None (always accept); a bounded receiver
        # returns False to push back, and the port parks until it has room.
        if self.deliver(item) is False and self.deliver_wait is not None:
            self.deliver_stalls += 1
            suite = self._parked_in = _sanitize.ACTIVE
            if suite is not None:
                suite.wait_edge(self.sim, *self.wait_labels)
            self.deliver_wait().add_callback(
                lambda _event: self._retry(item, size_bits)
            )
            return
        self.tx_packets += 1
        self.tx_bits += size_bits
        following = self._queue.try_get()
        if following is None:
            self._busy = False
        else:
            self._serialise(*following)

    def _retry(self, item: Any, size_bits: int) -> None:
        self._unpark()
        self._transmitted(item, size_bits)

    def _unpark(self) -> None:
        suite, self._parked_in = self._parked_in, None
        if suite is not None:
            suite.release_edge(*self.wait_labels)
