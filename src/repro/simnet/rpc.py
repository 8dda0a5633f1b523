"""Request/response messaging with timeout and retransmission.

NF instances talk to the datastore over RPC. CHC's client-side library
retransmits un-ACK'd state updates (§4.3, §6); that retransmission machinery
lives here so both the store client and the framework reuse it.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from repro.analysis import runtime as _sanitize
from repro.simnet.engine import Channel, Event, Simulator
from repro.simnet.network import Envelope, Network
from repro.util import stable_hash


class RpcError(RuntimeError):
    """Base class for RPC failures."""


class RpcTimeout(RpcError):
    """A call exhausted its retries without receiving a response."""


class RpcGaveUp(RpcTimeout):
    """The retry budget is spent: the endpoint stopped retransmitting.

    Subclasses :class:`RpcTimeout` so existing ``except RpcTimeout``
    handlers keep working; new code can distinguish "one attempt timed
    out" from "the caller has given up on this destination".
    """


class RpcRequest:
    """An incoming request as seen by a server.

    A plain ``__slots__`` class rather than a dataclass: one is allocated
    per request on the packet path, and slotted instances are both smaller
    and faster to construct.
    """

    __slots__ = ("request_id", "src", "dst", "payload", "received_at")

    def __init__(
        self,
        request_id: int,
        src: str,
        dst: str,
        payload: Any,
        received_at: float = 0.0,
    ):
        self.request_id = request_id
        self.src = src
        self.dst = dst
        self.payload = payload
        self.received_at = received_at

    def __repr__(self) -> str:
        return (
            f"RpcRequest(request_id={self.request_id!r}, src={self.src!r}, "
            f"dst={self.dst!r}, payload={self.payload!r})"
        )


class _Wire:
    """On-the-wire RPC frame (slotted; one per message on the wire)."""

    __slots__ = ("kind", "request_id", "payload", "ok")

    def __init__(self, kind: str, request_id: int, payload: Any, ok: bool = True):
        self.kind = kind  # "request" | "response" | "oneway"
        self.request_id = request_id
        self.payload = payload
        self.ok = ok


class RpcEndpoint:
    """A network endpoint speaking request/response and one-way messages.

    Servers handle each :class:`RpcRequest` in ``on_request`` and answer
    with :meth:`respond`; one-way messages go to ``on_message`` (as the
    delivered :class:`Envelope`, payload unwrapped). Both are called
    synchronously at the delivery instant, in send order per (src, dst)
    (DESIGN.md §5: a relay is a handler, not a process). An endpoint given
    no handler keeps the mailboxes: requests queue on :attr:`requests`,
    messages on :attr:`messages`, for a consumer to ``get()``. Clients use
    :meth:`call` (a generator to be driven with ``yield from``) or
    :meth:`call_event` for event-style use.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        on_request: Optional[Callable[[RpcRequest], Any]] = None,
        on_message: Optional[Callable[[Envelope], Any]] = None,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.requests = Channel(sim, name=f"rpc-requests({name})")
        self.messages = Channel(sim, name=f"rpc-messages({name})")
        self.on_request = on_request or self.requests.put
        self.on_message = on_message or self.messages.put
        # request id -> (waiter, on_reply): the response delivery triggers
        # the waiter, then calls on_reply(waiter) right there
        self._pending: Dict[int, Tuple[Event, Optional[Callable[[Event], Any]]]] = {}
        self._alive = True
        # Replay silence: the endpoint keeps receiving and processing but
        # every outbound frame (response or one-way) is silently dropped.
        # A restarted store node (repro.dist) replays its WAL this way, so
        # the rebuild answers nobody a second time.
        self.mute_output = False
        # Deterministic per-endpoint jitter source for retransmission
        # backoff: seeded from the endpoint name and the network seed, so a
        # rerun with the same seeds retransmits at identical instants.
        self._retry_rng = random.Random(
            stable_hash(name) ^ (getattr(network, "seed", 0) * 0x9E3779B1)
        )
        network.register_callback(name, self._on_envelope)

    @property
    def alive(self) -> bool:
        return self._alive

    def fail(self) -> None:
        """Fail-stop this endpoint: unregister, drop all pending calls."""
        if not self._alive:
            return
        self._alive = False
        self.network.set_down(self.name)
        self.network.unregister(self.name)
        self._pending.clear()

    def _on_envelope(self, envelope: Envelope) -> None:
        if not self._alive:
            return
        wire: _Wire = envelope.payload
        if wire.kind == "request":
            self.on_request(
                RpcRequest(
                    wire.request_id, envelope.src, self.name, wire.payload, self.sim.now
                )
            )
        elif wire.kind == "response":
            waiter, on_reply = self._pending.pop(wire.request_id, (None, None))
            if waiter is not None and not waiter.triggered:
                if wire.ok:
                    waiter.succeed(wire.payload)
                else:
                    waiter.fail(RpcError(wire.payload))
                if on_reply is not None:
                    on_reply(waiter)
        elif wire.kind == "oneway":
            # Unwrap the wire frame: consumers see the application payload.
            envelope.payload = wire.payload
            self.on_message(envelope)

    def send(self, dst: str, payload: Any) -> None:
        """Fire a one-way message (no response expected)."""
        if self.mute_output:
            return
        self.network.send(self.name, dst, _Wire("oneway", 0, payload))

    def _issue(
        self,
        dst: str,
        payload: Any,
        on_reply: Optional[Callable[[Event], Any]] = None,
    ) -> Tuple[int, Event]:
        """Send one request frame; returns ``(request_id, waiter)``."""
        request_id = next(self._ids)
        waiter = self.sim.event(name="rpc")
        self._pending[request_id] = (waiter, on_reply)
        self.network.send(self.name, dst, _Wire("request", request_id, payload))
        return request_id, waiter

    def call_event(
        self,
        dst: str,
        payload: Any,
        on_reply: Optional[Callable[[Event], Any]] = None,
    ) -> Event:
        """Issue a request; returns the event that fires with the response.

        ``on_reply(event)``, if given, is called from the response delivery
        itself, right after the event triggers — for a caller that only
        does bookkeeping on the reply and should not cost a wake-up. No
        timeout handling — callers that need retransmission use
        :meth:`call`.
        """
        return self._issue(dst, payload, on_reply)[1]

    def call(
        self,
        dst: str,
        payload: Any,
        timeout_us: Optional[float] = None,
        max_retries: int = 0,
        backoff: float = 2.0,
        jitter_frac: float = 0.1,
        max_timeout_us: Optional[float] = None,
    ) -> Generator:
        """Generator: issue a request, retransmitting on timeout.

        ``dst`` may be a name or a zero-arg callable returning a name; a
        callable is re-resolved on every attempt, so a retransmission can
        follow routing changes (e.g. a store failover swapping the cluster
        map mid-call).

        Use as ``value = yield from endpoint.call(...)``. Retransmission is
        *bounded*: each retry multiplies the wait by ``backoff`` (capped at
        ``max_timeout_us``, default 16x the base timeout) plus a
        deterministic seeded jitter of up to ``jitter_frac`` of the current
        wait — a storm of clients timing out together de-synchronises
        instead of retransmitting in lockstep. After the budget of
        ``max_retries`` retransmissions is spent the call raises
        :class:`RpcGaveUp` (a :class:`RpcTimeout`).

        A timed-out attempt leaves nothing behind: the stale waiter is
        dropped from ``_pending`` by its remembered request id (O(1), where
        the seed scanned the whole table), and the lost race's
        :class:`~repro.simnet.engine.AnyOf` detaches from the loser, so a
        late response for a retransmitted id is simply discarded. Each
        timed-out attempt bumps ``network.rpc_timeouts``; each retransmit
        bumps ``network.rpc_retries`` (surfaced through
        :class:`repro.simnet.monitor.EngineCounters`).
        """
        resolve = dst if callable(dst) else None
        attempts = max_retries + 1
        wait = timeout_us
        if timeout_us is not None and max_timeout_us is None:
            max_timeout_us = timeout_us * 16.0
        for attempt in range(attempts):
            target = resolve() if resolve is not None else dst
            request_id, waiter = self._issue(target, payload)
            # Deadlock-sanitizer edge: this endpoint is parked on `target`.
            # A timed wait is soft — its own timeout breaks it, so it can
            # never close a real deadlock; recording it as a hard edge made
            # long planned-operation drains read as false cycles. Only an
            # untimed wait (no retransmission timer) is a hard edge.
            soft = timeout_us is not None
            suite = _sanitize.ACTIVE
            if suite is not None:
                suite.wait_edge(
                    self.sim, f"rpc:{self.name}", f"rpc:{target}", soft=soft
                )
            try:
                if timeout_us is None:
                    value = yield waiter
                    return value
                timer = self.sim.timeout(wait)
                winner, value = yield self.sim.any_of([waiter, timer])
            finally:
                if suite is not None:
                    suite.release_edge(
                        f"rpc:{self.name}", f"rpc:{target}", soft=soft
                    )
            if winner is waiter:
                return value
            # timed out: forget the stale waiter and retransmit
            self._pending.pop(request_id, None)
            self.network.rpc_timeouts += 1
            if attempt + 1 < attempts:
                self.network.rpc_retries += 1
                wait = min(wait * backoff, max_timeout_us)
                if jitter_frac > 0.0:
                    wait += self._retry_rng.random() * jitter_frac * wait
        self.network.rpc_gaveups += 1
        where = target if resolve is not None else dst
        raise RpcGaveUp(f"{self.name} -> {where}: no response after {attempts} attempts")

    def respond(self, request: RpcRequest, value: Any, ok: bool = True) -> None:
        """Answer ``request`` (server side)."""
        if self.mute_output:
            return
        self.network.send(
            self.name, request.src, _Wire("response", request.request_id, value, ok=ok)
        )
