"""Synthetic trace generation (campus→EC2 analogues).

:func:`make_trace1` and :func:`make_trace2` produce scaled-down analogues of
the paper's two evaluation traces, preserving the statistics experiments
depend on:

* Trace1: few (1.7K), very long connections; median packet size 368B.
* Trace2: many (199K) shorter connections; median packet size 1434B.

``scale`` shrinks packet counts (a Python discrete-event simulation cannot
usefully chew through 6.4M packets per experiment) while keeping
packets-per-connection ratios and size mixes intact.

numpy is imported inside the functions that generate or describe a trace:
a process that only replays packets never loads it (DESIGN.md §9.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.traffic.flows import FlowSpec, flow_packets, interleave
from repro.traffic.packet import FiveTuple, PROTO_TCP, PROTO_UDP, Packet


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics, comparable to the paper's trace description."""

    n_packets: int
    n_connections: int
    median_packet_size: float
    total_bytes: int

    def __str__(self) -> str:
        return (
            f"{self.n_packets} pkts, {self.n_connections} conns, "
            f"median {self.median_packet_size:.0f}B, {self.total_bytes} bytes"
        )


@dataclass
class Trace:
    """An ordered packet stream plus reference arrival times."""

    packets: List[Packet]
    times: List[float]
    name: str = "trace"

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self):
        return iter(self.packets)

    def stats(self) -> TraceStats:
        import numpy as np

        sizes = [p.size_bytes for p in self.packets]
        conns = {p.five_tuple.canonical() for p in self.packets}
        return TraceStats(
            n_packets=len(self.packets),
            n_connections=len(conns),
            median_packet_size=float(np.median(sizes)) if sizes else 0.0,
            total_bytes=sum(sizes),
        )

    def slice(self, start: int, stop: Optional[int] = None) -> "Trace":
        return Trace(self.packets[start:stop], self.times[start:stop], name=self.name)


def _client_ip(rng: random.Random, n_hosts: int) -> str:
    host = rng.randrange(n_hosts)
    return f"10.0.{host // 250}.{host % 250 + 1}"


def _server_ip(rng: random.Random, n_servers: int) -> str:
    server = rng.randrange(n_servers)
    return f"52.10.{server // 250}.{server % 250 + 1}"


def make_trace(
    n_packets: int,
    n_connections: int,
    data_size_choices: Sequence[Tuple[int, float]],
    seed: int = 0,
    n_hosts: int = 200,
    n_servers: int = 40,
    udp_fraction: float = 0.05,
    server_ports: Sequence[int] = (80, 443, 22, 21),
    name: str = "trace",
) -> Trace:
    """Generate a trace of roughly ``n_packets`` over ``n_connections`` flows.

    ``data_size_choices`` is a ``[(size_bytes, weight), ...]`` mixture for
    data segments; flow lengths are heavy-tailed (lognormal) normalised so
    the totals come out right. Deterministic for a given seed.
    """
    if n_connections <= 0 or n_packets <= 0:
        raise ValueError("need positive packet and connection counts")
    import numpy as np

    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)

    # Heavy-tailed packets-per-flow, normalised to the requested total.
    raw = nprng.lognormal(mean=0.0, sigma=1.2, size=n_connections)
    per_flow = np.maximum(2, (raw / raw.sum() * n_packets).astype(int))

    sizes, weights = zip(*data_size_choices)
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()

    flows: List[List[Tuple[float, Packet]]] = []
    span_us = max(float(n_packets), 1000.0)  # flows start spread over this window
    for count in per_flow:
        proto = PROTO_UDP if rng.random() < udp_fraction else PROTO_TCP
        ft = FiveTuple(
            src_ip=_client_ip(rng, n_hosts),
            dst_ip=_server_ip(rng, n_servers),
            src_port=rng.randrange(1024, 65535),
            dst_port=rng.choice(list(server_ports)),
            proto=proto,
        )
        spec = FlowSpec(
            five_tuple=ft,
            n_packets=int(count),
            data_size_bytes=int(nprng.choice(sizes, p=weights)),
            start_us=rng.random() * span_us,
            gap_us=0.5 + rng.random() * 2.0,
        )
        flows.append(flow_packets(spec, rng))

    stream = interleave(flows)
    return Trace(packets=[p for _t, p in stream], times=[t for t, _p in stream], name=name)


def make_trace1(scale: float = 0.01, seed: int = 1) -> Trace:
    """Trace1 analogue: few, long connections; small median packet (368B).

    At ``scale=1`` this would be 3.8M packets / 1.7K connections; the
    default generates ~38K packets over ~17 connections-per-1.7K ratio
    preserved (min 20 connections so the mix stays interesting).
    """
    n_packets = max(int(3_800_000 * scale), 2_000)
    n_connections = max(int(1_700 * scale), 20)
    return make_trace(
        n_packets=n_packets,
        n_connections=n_connections,
        data_size_choices=[(368, 0.70), (120, 0.15), (1434, 0.15)],
        seed=seed,
        name="trace1",
    )


def make_trace2(scale: float = 0.01, seed: int = 2) -> Trace:
    """Trace2 analogue: many connections; large median packet (1434B)."""
    n_packets = max(int(6_400_000 * scale), 2_000)
    n_connections = max(int(199_000 * scale), 50)
    return make_trace(
        n_packets=n_packets,
        n_connections=n_connections,
        data_size_choices=[(1434, 0.88), (368, 0.08), (60, 0.04)],
        seed=seed,
        name="trace2",
    )
