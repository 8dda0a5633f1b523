"""Least-connections L4 load balancer (§6, Table 4).

State:

* ``server_conns`` — active connection count per backend, cross-flow,
  write/read often. New connections pick the least-loaded backend via one
  offloaded operation (read + choose + increment, serialized by the
  store), teardown decrements.
* ``server_bytes`` — per-backend byte counter, cross-flow, write mostly:
  updated on **every** packet, non-blocking. This is the object that
  makes the load balancer line-rate-bound under the EO model (one RTT
  per packet, §7.1).
* ``conn_map`` — per-flow backend binding, written once, read per packet.
"""

from __future__ import annotations

from typing import Dict, Generator, Sequence, Tuple

from repro.core.nf_api import NetworkFunction, Output, StateAPI
from repro.store.spec import AccessPattern, Scope, StateObjectSpec
from repro.traffic.packet import Packet

DEFAULT_SERVERS = ("192.168.1.1", "192.168.1.2", "192.168.1.3", "192.168.1.4")


class LoadBalancer(NetworkFunction):
    """See module docstring."""

    name = "lb"
    speculative = True

    def __init__(self, servers: Sequence[str] = DEFAULT_SERVERS, rewrite: bool = False):
        if not servers:
            raise ValueError("load balancer needs at least one backend")
        self.servers = tuple(servers)
        self.rewrite = rewrite

    def state_specs(self) -> Dict[str, StateObjectSpec]:
        return {
            "server_conns": StateObjectSpec(
                "server_conns",
                Scope.CROSS_FLOW,
                AccessPattern.READ_WRITE_OFTEN,
                scope_fields=(),
                initial_value=None,
            ),
            "server_bytes": StateObjectSpec(
                "server_bytes",
                Scope.CROSS_FLOW,
                AccessPattern.WRITE_MOSTLY,
                scope_fields=(),
                initial_value=0,
            ),
            "conn_map": StateObjectSpec(
                "conn_map",
                Scope.PER_FLOW,
                AccessPattern.READ_HEAVY,
                initial_value=None,
            ),
        }

    def custom_operations(self):
        def pick_least_loaded(value, servers):
            """Choose the backend with the fewest active connections and
            increment its count — one serialized store-side operation, so
            two instances can never double-book the same slot."""
            loads = dict(value) if value else {}
            chosen = min(servers, key=lambda s: (loads.get(s, 0), s))
            loads[chosen] = loads.get(chosen, 0) + 1
            return loads, chosen

        def release_conn(value, server):
            loads = dict(value) if value else {}
            if loads.get(server, 0) > 0:
                loads[server] -= 1
            return loads, loads.get(server, 0)

        return {"pick_least_loaded": pick_least_loaded, "release_conn": release_conn}

    @staticmethod
    def flow_key(packet: Packet) -> Tuple:
        return packet.five_tuple.canonical().key()

    def process(self, packet: Packet, state: StateAPI) -> Generator:
        flow = self.flow_key(packet)
        backend = yield from state.read("conn_map", flow)

        if backend is None:
            if not packet.is_syn:
                # Mid-flow packet for an unknown connection (e.g. arrived
                # before its SYN after reordering): pass through unbalanced.
                yield from state.update("server_bytes", None, "incr", packet.size_bytes)
                return [Output(packet)]
            backend = yield from state.update(
                "server_conns", None, "pick_least_loaded", self.servers, need_result=True
            )
            yield from state.update("conn_map", flow, "set", backend)

        yield from state.update("server_bytes", None, "incr", packet.size_bytes)

        if packet.is_fin or packet.is_rst:
            yield from state.update("server_conns", None, "release_conn", backend)

        out = packet
        if self.rewrite:
            out = packet.copy()
            ft = packet.five_tuple
            out.five_tuple = type(ft)(ft.src_ip, backend, ft.src_port, ft.dst_port, ft.proto)
        return [Output(out)]
