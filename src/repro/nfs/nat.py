"""Dynamic NAT (§6 "NAT", Table 4).

State objects and their declared scope/access patterns match Table 4:

=====================  ==========  ===============================
object                 scope       access pattern
=====================  ==========  ===============================
``available_ports``    cross-flow  write/read often
``total_tcp_packets``  cross-flow  write mostly, read rarely
``total_packets``      cross-flow  write mostly, read rarely
``port_map``           per-flow    write rarely, read mostly
=====================  ==========  ===============================

On a new connection the NAT obtains a free port by offloading a ``pop``
on the shared port list ("The datastore pops an entry from the list of
available ports on behalf of the NF"), records the per-connection mapping
once, and updates both packet counters on every packet — the access
profile behind the paper's "NAT needs three RTTs on average per packet"
under the no-caching model.

Address rewriting is implemented but off by default in chain experiments
(``rewrite=False``): the evaluation traces carry original endpoints in
both directions, and rewriting would decouple the two directions for
downstream NFs. Unit tests exercise the rewrite path with post-NAT
inbound packets.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

from repro.core.nf_api import NetworkFunction, Output, StateAPI
from repro.store.spec import AccessPattern, Scope, StateObjectSpec
from repro.traffic.packet import PROTO_TCP, Packet

DEFAULT_PORT_RANGE = (40_000, 40_512)
INTERNAL_PREFIX = "10."


class Nat(NetworkFunction):
    """See module docstring."""

    name = "nat"
    speculative = True

    def __init__(
        self,
        external_ip: str = "198.51.100.1",
        port_range: Tuple[int, int] = DEFAULT_PORT_RANGE,
        rewrite: bool = False,
        internal_prefix: str = INTERNAL_PREFIX,
    ):
        self.external_ip = external_ip
        self.port_range = port_range
        self.rewrite = rewrite
        self.internal_prefix = internal_prefix
        self.ports_exhausted = 0

    def state_specs(self) -> Dict[str, StateObjectSpec]:
        return {
            "available_ports": StateObjectSpec(
                "available_ports",
                Scope.CROSS_FLOW,
                AccessPattern.READ_WRITE_OFTEN,
                scope_fields=(),
                initial_value=list(range(*self.port_range)),
            ),
            "total_tcp_packets": StateObjectSpec(
                "total_tcp_packets",
                Scope.CROSS_FLOW,
                AccessPattern.WRITE_MOSTLY,
                scope_fields=(),
                initial_value=0,
            ),
            "total_packets": StateObjectSpec(
                "total_packets",
                Scope.CROSS_FLOW,
                AccessPattern.WRITE_MOSTLY,
                scope_fields=(),
                initial_value=0,
            ),
            "port_map": StateObjectSpec(
                "port_map",
                Scope.PER_FLOW,
                AccessPattern.READ_HEAVY,
                initial_value=None,
            ),
        }

    def custom_operations(self):
        def pop_or_init(value, initial_lo, initial_hi):
            """Pop a free port, lazily initialising the free list."""
            ports = list(value) if value is not None else list(range(initial_lo, initial_hi))
            port = ports.pop(0) if ports else None
            return ports, port

        return {"nat_pop_port": pop_or_init}

    @staticmethod
    def flow_key(packet: Packet) -> Tuple:
        return packet.five_tuple.canonical().key()

    def _is_outbound(self, packet: Packet) -> bool:
        return packet.five_tuple.src_ip.startswith(self.internal_prefix)

    def _is_translated_inbound(self, packet: Packet) -> bool:
        return packet.five_tuple.dst_ip == self.external_ip

    def process(self, packet: Packet, state: StateAPI) -> Generator:
        flow = self.flow_key(packet)

        # Per-packet counters: every packet, write-mostly => non-blocking.
        yield from state.update("total_packets", None, "incr", 1)
        if packet.five_tuple.proto == PROTO_TCP:
            yield from state.update("total_tcp_packets", None, "incr", 1)

        # A SYN starts a new connection: allocate directly, no lookup
        # ("per conn. port mapping" is written exactly once, Table 4).
        mapping = None
        if not packet.is_syn:
            mapping = yield from state.read("port_map", flow)
        if mapping is None and (self._is_outbound(packet) or not self.rewrite):
            # New connection: allocate an external port from the shared
            # list (offloaded pop; the NF needs the result).
            port = yield from state.update(
                "available_ports",
                None,
                "nat_pop_port",
                self.port_range[0],
                self.port_range[1],
                need_result=True,
            )
            if port is None:
                self.ports_exhausted += 1  # chclint: disable=CHC005 — host-local diagnostic counter
                return []
            mapping = (self.external_ip, port)
            yield from state.update("port_map", flow, "set", mapping)

        if self.rewrite and mapping is not None:
            packet = self._translate(packet, mapping)
        return [Output(packet)]

    def _translate(self, packet: Packet, mapping: Tuple[str, int]) -> Packet:
        external_ip, external_port = mapping
        ft = packet.five_tuple
        translated = packet.copy()
        if self._is_outbound(packet):
            translated.five_tuple = type(ft)(
                src_ip=external_ip,
                dst_ip=ft.dst_ip,
                src_port=external_port,
                dst_port=ft.dst_port,
                proto=ft.proto,
            )
        elif self._is_translated_inbound(packet):
            # Reverse translation would consult a port-indexed mapping in a
            # full deployment; here the per-flow mapping suffices because
            # flow keys are canonical (direction-independent).
            translated.five_tuple = ft
        return translated

    def release_port(self, state: StateAPI, port: int) -> Generator:
        """Return a port to the shared free list (connection teardown)."""
        yield from state.update("available_ports", None, "push", port)
