"""Stateful firewall (Figure 2's chain head).

Rule-based admission plus connection tracking: outbound connections
punch a per-flow hole so return traffic is admitted even when no rule
matches it (standard stateful-firewall behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.core.nf_api import NetworkFunction, Output, StateAPI
from repro.store.spec import AccessPattern, Scope, StateObjectSpec
from repro.traffic.packet import Packet


@dataclass(frozen=True)
class FirewallRule:
    """First match wins. ``None`` fields are wildcards."""

    action: str  # "allow" | "deny"
    src_prefix: Optional[str] = None
    dst_prefix: Optional[str] = None
    dst_port: Optional[int] = None
    proto: Optional[int] = None

    def matches(self, packet: Packet) -> bool:
        ft = packet.five_tuple
        if self.src_prefix is not None and not ft.src_ip.startswith(self.src_prefix):
            return False
        if self.dst_prefix is not None and not ft.dst_ip.startswith(self.dst_prefix):
            return False
        if self.dst_port is not None and ft.dst_port != self.dst_port:
            return False
        if self.proto is not None and ft.proto != self.proto:
            return False
        return True


DEFAULT_RULES = (
    FirewallRule(action="allow", src_prefix="10."),       # outbound from campus
    FirewallRule(action="allow", src_prefix="172.16."),   # lab subnets
    FirewallRule(action="allow", src_prefix="52."),       # EC2 return paths
)


class Firewall(NetworkFunction):
    """See module docstring."""

    name = "firewall"
    speculative = True

    def __init__(self, rules: Tuple[FirewallRule, ...] = DEFAULT_RULES, default_action: str = "deny"):
        self.rules = tuple(rules)
        self.default_action = default_action
        self.denied = 0

    def state_specs(self) -> Dict[str, StateObjectSpec]:
        return {
            "conn_allowed": StateObjectSpec(
                "conn_allowed",
                Scope.PER_FLOW,
                AccessPattern.READ_HEAVY,
                initial_value=False,
            ),
            "denied_count": StateObjectSpec(
                "denied_count",
                Scope.CROSS_FLOW,
                AccessPattern.WRITE_MOSTLY,
                scope_fields=(),
                initial_value=0,
            ),
        }

    @staticmethod
    def flow_key(packet: Packet) -> Tuple:
        return packet.five_tuple.canonical().key()

    def _static_action(self, packet: Packet) -> str:
        for rule in self.rules:
            if rule.matches(packet):
                return rule.action
        return self.default_action

    def process(self, packet: Packet, state: StateAPI) -> Generator:
        flow = self.flow_key(packet)
        allowed = yield from state.read("conn_allowed", flow)
        if allowed:
            return [Output(packet)]
        if self._static_action(packet) == "allow":
            if packet.is_syn:
                # Punch the per-flow hole: return traffic is admitted even
                # when no static rule matches it.
                yield from state.update("conn_allowed", flow, "set", True)
            return [Output(packet)]
        yield from state.update("denied_count", None, "incr", 1)
        self.denied += 1  # chclint: disable=CHC005 — host-local diagnostic counter
        return []
