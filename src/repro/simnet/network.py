"""Point-to-point links and a named-endpoint network fabric.

The network does **not** guarantee ordering or delivery (the paper's §2.1:
"The network today already reorders or drops packets"); links can be
configured with latency jitter (which reorders) and a loss probability. The
defaults are lossless, constant-latency links, which is what the evaluation
testbed (a single rack) behaves like.

Beyond static links the fabric supports the adversarial conditions the
chaos campaigns (:mod:`repro.chaos`) compose:

* **partitions** — :meth:`Network.partition` splits the endpoints into
  groups; messages between different groups are dropped until
  :meth:`Network.heal`;
* **time-windowed degradation** — :meth:`Network.degrade` overlays extra
  loss / jitter / latency on matching (src, dst) pairs for a time window
  (loss bursts and latency spikes that start and stop mid-run);
* **drop accounting by cause** — every dropped message is attributed to
  ``loss``, ``endpoint_down``, ``unregistered`` or ``partition`` in
  :attr:`Network.drops`, so campaign reports can explain where messages
  went. ``Network.dropped`` stays as the total for backward compatibility.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.simnet.engine import Channel, Simulator

# The chain's latency model (all µs): NF<->store links are STORE_LINK_US
# one-way (RTT ≈ 28µs, matching §7.2's 29µs clock-persist cost); NF->NF hops
# are HOP_LINK_US; the root<->last-NF delete path is ROOT_LINK_US one-way
# (§7.2 reports a 7.9µs median synchronous delete).
STORE_LINK_US = 14.0
HOP_LINK_US = 3.0
ROOT_LINK_US = 4.0


@dataclass
class Link:
    """One-way link properties between two endpoints.

    ``latency_us`` is the one-way propagation delay; ``jitter_us`` adds a
    uniform random extra delay in ``[0, jitter_us]`` (this is what reorders
    packets); ``loss`` is an independent drop probability per message.
    """

    latency_us: float = 14.0
    jitter_us: float = 0.0
    loss: float = 0.0

    def delay(self, rng: random.Random) -> Optional[float]:
        """One sampled traversal delay, or ``None`` if the message is lost."""
        if self.loss > 0 and rng.random() < self.loss:
            return None
        if self.jitter_us > 0:
            return self.latency_us + rng.random() * self.jitter_us
        return self.latency_us


@dataclass
class Degradation:
    """A time-windowed overlay on top of the static link parameters.

    ``src`` / ``dst`` of ``None`` match any endpoint. ``loss`` composes with
    the link's own loss as independent drop chances; ``jitter_us`` and
    ``extra_latency_us`` add to the link's values. Active while
    ``start <= now < end``.
    """

    src: Optional[str] = None
    dst: Optional[str] = None
    loss: float = 0.0
    jitter_us: float = 0.0
    extra_latency_us: float = 0.0
    start: float = 0.0
    end: float = math.inf

    def matches(self, src: str, dst: str, now: float) -> bool:
        if now < self.start or now >= self.end:
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return True


class Envelope:
    """A message in flight on the network.

    Slotted plain class: one envelope is allocated per message, making this
    one of the hottest allocation sites in the simulator.
    """

    __slots__ = ("src", "dst", "payload", "sent_at")

    def __init__(self, src: str, dst: str, payload: Any, sent_at: float = 0.0):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.sent_at = sent_at

    def __repr__(self) -> str:
        return f"Envelope({self.src!r} -> {self.dst!r}, sent_at={self.sent_at})"


class Network:
    """A fabric of named endpoints joined by configurable links.

    Endpoints register an inbox (:class:`Channel`) or a delivery callback.
    ``default_link`` is used for any pair without an explicit link, which
    keeps experiment setup terse (one RTT constant for the whole testbed).
    """

    def __init__(self, sim: Simulator, default_link: Optional[Link] = None, seed: int = 0):
        self.sim = sim
        self.default_link = default_link or Link()
        self._links: Dict[Tuple[str, str], Link] = {}
        self._inboxes: Dict[str, Channel] = {}
        self._callbacks: Dict[str, Callable[[Envelope], None]] = {}
        self._down: set = set()
        self.seed = seed
        self.rng = random.Random(seed)
        self.delivered = 0
        # drop accounting by cause; `dropped` (total) is derived from this
        self.drops: Dict[str, int] = {
            "loss": 0,
            "endpoint_down": 0,
            "unregistered": 0,
            "partition": 0,
        }
        # RPC-layer counters (incremented by RpcEndpoint; surfaced through
        # monitor.EngineCounters so campaign reports can attribute control-
        # plane churn).
        self.rpc_retries = 0
        self.rpc_timeouts = 0
        self.rpc_gaveups = 0
        self._partition: Optional[Dict[str, int]] = None  # endpoint -> group
        self._degradations: List[Degradation] = []
        # Distributed bridging hook (repro.dist, DESIGN.md §13): when an
        # envelope reaches an endpoint nobody registered locally, the
        # default route may claim it (returns True) — the shard bridge uses
        # this to put store-bound traffic on the wire. Unclaimed envelopes
        # still land in drops["unregistered"].
        self.default_route: Optional[Callable[[Envelope], bool]] = None
        self.bridged = 0

    @property
    def dropped(self) -> int:
        """Total messages dropped, all causes (backward-compatible view)."""
        return sum(self.drops.values())

    def account_drop(self, cause: str, count: int = 1) -> None:
        """Fold an out-of-fabric drop (NIC ring, overload shed) into the
        per-cause ledger so invariant checkers see one unified account."""
        self.drops[cause] = self.drops.get(cause, 0) + count

    def register(self, name: str) -> Channel:
        """Register ``name`` and return its inbox channel.

        Re-registering a previously failed name clears its down flag (a
        failover component may adopt its predecessor's address).
        """
        if name in self._inboxes or name in self._callbacks:
            raise ValueError(f"endpoint {name!r} already registered")
        inbox = Channel(self.sim, name=f"inbox({name})")
        self._inboxes[name] = inbox
        self._down.discard(name)
        return inbox

    def register_callback(self, name: str, callback: Callable[[Envelope], None]) -> None:
        """Register ``name`` with a delivery callback instead of an inbox."""
        if name in self._inboxes or name in self._callbacks:
            raise ValueError(f"endpoint {name!r} already registered")
        self._callbacks[name] = callback
        self._down.discard(name)

    def unregister(self, name: str) -> None:
        self._inboxes.pop(name, None)
        self._callbacks.pop(name, None)

    def set_down(self, name: str, down: bool = True) -> None:
        """Mark an endpoint down (fail-stop): messages to it are dropped."""
        if down:
            self._down.add(name)
        else:
            self._down.discard(name)

    # ------------------------------------------------------------------
    # partitions and time-windowed degradation (chaos campaign hooks)
    # ------------------------------------------------------------------

    def partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Partition the fabric: endpoints in different groups can't talk.

        ``groups`` is a list of endpoint-name collections. Messages whose
        src and dst both appear in (different) groups are dropped at send
        time and accounted as ``partition`` drops. Endpoints not listed in
        any group are unrestricted — they see every side (this models a
        partition of a subset of the rack, e.g. NFs cut off from the store
        while the root still reaches both). Calling :meth:`partition` again
        replaces the previous partition; :meth:`heal` removes it.
        """
        membership: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                membership[name] = index
        self._partition = membership

    def heal(self) -> None:
        """Remove the current partition (messages flow everywhere again)."""
        self._partition = None

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def _blocked_by_partition(self, src: str, dst: str) -> bool:
        membership = self._partition
        if membership is None:
            return False
        src_group = membership.get(src)
        dst_group = membership.get(dst)
        return src_group is not None and dst_group is not None and src_group != dst_group

    def degrade(
        self,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        *,
        loss: float = 0.0,
        jitter_us: float = 0.0,
        extra_latency_us: float = 0.0,
        start: Optional[float] = None,
        duration_us: Optional[float] = None,
    ) -> Degradation:
        """Overlay loss / jitter / latency on matching traffic for a window.

        ``src=None`` / ``dst=None`` are wildcards. The window defaults to
        starting now and never ending; expired degradations are pruned
        lazily. Returns the :class:`Degradation`, which can be removed early
        with :meth:`remove_degradation`.
        """
        begin = self.sim.now if start is None else start
        end = math.inf if duration_us is None else begin + duration_us
        degradation = Degradation(
            src=src,
            dst=dst,
            loss=loss,
            jitter_us=jitter_us,
            extra_latency_us=extra_latency_us,
            start=begin,
            end=end,
        )
        self._degradations.append(degradation)
        return degradation

    def remove_degradation(self, degradation: Degradation) -> None:
        try:
            self._degradations.remove(degradation)
        except ValueError:
            pass

    def _degraded_delay(self, link: Link, src: str, dst: str) -> Optional[float]:
        """Link delay with all active degradations applied (or None = lost)."""
        now = self.sim.now
        live: List[Degradation] = []
        loss = link.loss
        jitter = link.jitter_us
        extra = 0.0
        changed = False
        for degradation in self._degradations:
            if now >= degradation.end:
                changed = True  # expired; prune below
                continue
            live.append(degradation)
            if degradation.matches(src, dst, now):
                # independent drop chances compose
                loss = 1.0 - (1.0 - loss) * (1.0 - degradation.loss)
                jitter += degradation.jitter_us
                extra += degradation.extra_latency_us
        if changed:
            self._degradations = live
        rng = self.rng
        if loss > 0 and rng.random() < loss:
            return None
        delay = link.latency_us + extra
        if jitter > 0:
            delay += rng.random() * jitter
        return delay

    # ------------------------------------------------------------------
    # links and transmission
    # ------------------------------------------------------------------

    def connect(self, src: str, dst: str, link: Link, bidirectional: bool = True) -> None:
        """Install an explicit link for the (src, dst) pair."""
        self._links[(src, dst)] = link
        if bidirectional:
            self._links[(dst, src)] = link

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Send ``payload`` from ``src`` to ``dst`` over the appropriate link."""
        if self._partition is not None and self._blocked_by_partition(src, dst):
            self.drops["partition"] += 1
            return
        link = self._links.get((src, dst)) or self.default_link
        if self._degradations:
            delay = self._degraded_delay(link, src, dst)
        else:
            delay = link.delay(self.rng)
        if delay is None:
            self.drops["loss"] += 1
            return
        self.sim.schedule(
            delay, self._deliver, Envelope(src, dst, payload, self.sim.now)
        )

    def _deliver(self, envelope: Envelope) -> None:
        if envelope.dst in self._down:
            self.drops["endpoint_down"] += 1
            return
        inbox = self._inboxes.get(envelope.dst)
        if inbox is not None:
            inbox.put(envelope)
            self.delivered += 1
            return
        callback = self._callbacks.get(envelope.dst)
        if callback is not None:
            callback(envelope)
            self.delivered += 1
            return
        # no such endpoint: offer it to the distributed bridge before
        # declaring it a drop (e.g. crashed and unregistered)
        if self.default_route is not None and self.default_route(envelope):
            self.bridged += 1
            return
        self.drops["unregistered"] += 1
