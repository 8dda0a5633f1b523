"""The chaos chain's two NFs: per-flow and shared counters.

They are the NF code of every chain the campaigns disturb (chaos, ops,
overload) and of each :mod:`repro.dist` shard. This module imports no
campaign machinery, so a shard process that runs them does not load the
campaign runner (chclint CHC013).
"""

from __future__ import annotations

from repro.core.nf_api import NetworkFunction, Output
from repro.store.spec import AccessPattern, Scope, StateObjectSpec


class EntryCounterNF(NetworkFunction):
    """Per-flow hit counter + shared total: exercises PER_FLOW_CACHE and
    NON_BLOCKING offload on every packet (the state classes whose recovery
    Theorems B.5.1/B.5.2 cover)."""

    name = "entry"

    def state_specs(self):
        return {
            "hits": StateObjectSpec(
                "hits", Scope.PER_FLOW, AccessPattern.READ_WRITE_OFTEN, initial_value=0
            ),
            "total": StateObjectSpec(
                "total", Scope.CROSS_FLOW, AccessPattern.WRITE_MOSTLY, (), initial_value=0
            ),
        }

    def process(self, packet, state):
        flow = packet.five_tuple.canonical().key()
        yield from state.update("hits", flow, "incr", 1)
        yield from state.update("total", None, "incr", 1)
        return [Output(packet)]


class SinkCounterNF(NetworkFunction):
    """Shared seen-counter at the chain exit."""

    name = "exit"

    def state_specs(self):
        return {
            "seen": StateObjectSpec(
                "seen", Scope.CROSS_FLOW, AccessPattern.WRITE_MOSTLY, (), initial_value=0
            ),
        }

    def process(self, packet, state):
        yield from state.update("seen", None, "incr", 1)
        return [Output(packet)]
