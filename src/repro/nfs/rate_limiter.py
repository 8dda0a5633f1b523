"""Per-host rate limiter (the Figure 1 chain's tail stage).

A deterministic windowed limiter: at most ``limit`` packets per host per
``window`` of logical clock values (logical clocks are per-packet, so a
window of W clocks is a window of W chain-input packets — deterministic
under replay, unlike wall-clock token buckets, which is why the paper's
Appendix A pushes non-deterministic inputs into the store).
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.core.nf_api import NetworkFunction, Output, StateAPI
from repro.store.spec import AccessPattern, Scope, StateObjectSpec
from repro.traffic.packet import Packet


class RateLimiter(NetworkFunction):
    """See module docstring."""

    name = "ratelimiter"
    speculative = True

    def __init__(self, limit: int = 64, window: int = 256):
        if limit <= 0 or window <= 0:
            raise ValueError("limit and window must be positive")
        self.limit = limit
        self.window = window
        self.dropped = 0

    def state_specs(self) -> Dict[str, StateObjectSpec]:
        return {
            "bucket": StateObjectSpec(
                "bucket",
                Scope.CROSS_FLOW,
                AccessPattern.READ_WRITE_OFTEN,
                scope_fields=("src_ip",),
                initial_value=None,
            ),
        }

    def custom_operations(self):
        window = self.window

        def rate_probe(value, when, limit):
            """Count packets within the current clock window; returns
            whether this packet is admitted."""
            window_start, count = value if value else (0, 0)
            if when - window_start >= window:
                window_start, count = when, 0
            admitted = count < limit
            if admitted:
                count += 1
            return (window_start, count), admitted

        return {"rate_probe": rate_probe}

    def process(self, packet: Packet, state: StateAPI) -> Generator:
        host = packet.five_tuple.src_ip
        admitted = yield from state.update(
            "bucket", (host,), "rate_probe", packet.clock, self.limit, need_result=True
        )
        if not admitted:
            self.dropped += 1  # chclint: disable=CHC005 — host-local diagnostic counter
            return []
        return [Output(packet)]
