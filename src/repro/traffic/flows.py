"""Flow-level traffic construction.

A :class:`FlowSpec` describes one connection (endpoints, length, packet
sizes, start time, pacing); :func:`flow_packets` expands it into the packet
sequence a well-formed TCP connection produces (SYN, SYN-ACK, data both
directions, FIN or RST). Traces are built by interleaving many flows by
arrival time (:mod:`repro.traffic.trace`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.traffic.packet import ACK, FIN, FiveTuple, PROTO_UDP, Packet, RST, SYN

HANDSHAKE_SIZE = 60        # bytes of a bare SYN / SYN-ACK / FIN / RST segment
MIN_SEGMENT = 60
MAX_SEGMENT = 1500


@dataclass
class FlowSpec:
    """One connection's shape.

    ``n_packets`` counts all packets including handshake/teardown.
    ``reset`` ends the flow with RST instead of FIN (portscan probes to
    closed ports are modelled as SYN answered by RST).
    """

    five_tuple: FiveTuple
    n_packets: int
    data_size_bytes: int = 1434
    start_us: float = 0.0
    gap_us: float = 1.0
    reset: bool = False
    refused: bool = False  # SYN answered by RST from the server (scan probe)

    def duration_us(self) -> float:
        return self.gap_us * max(self.n_packets - 1, 0)


def flow_packets(spec: FlowSpec, rng: Optional[random.Random] = None) -> List[Tuple[float, Packet]]:
    """Expand a spec into ``(arrival_time_us, Packet)`` pairs.

    TCP flows get a 3-packet handshake (SYN, SYN-ACK, ACK) and a closing
    FIN/RST; data packets alternate a forward-heavy direction mix. UDP
    flows are all data. A *refused* flow is just SYN then RST from the
    responder — the portscan detector's negative signal.
    """
    rng = rng or random.Random(0)
    ft = spec.five_tuple
    out: List[Tuple[float, Packet]] = []
    t = spec.start_us

    def emit(tuple_: FiveTuple, flags: int, size: int) -> None:
        nonlocal t
        out.append((t, Packet(five_tuple=tuple_, size_bytes=size, flags=flags)))
        t += spec.gap_us

    if ft.proto == PROTO_UDP:
        for _ in range(max(spec.n_packets, 1)):
            emit(ft, 0, spec.data_size_bytes)
        return out

    if spec.refused:
        emit(ft, SYN, HANDSHAKE_SIZE)
        emit(ft.reversed(), RST | ACK, HANDSHAKE_SIZE)
        return out

    emit(ft, SYN, HANDSHAKE_SIZE)
    emit(ft.reversed(), SYN | ACK, HANDSHAKE_SIZE)
    emit(ft, ACK, HANDSHAKE_SIZE)

    n_data = max(spec.n_packets - 4, 0)
    for i in range(n_data):
        # roughly 4:1 forward:reverse data mix, deterministic per index
        direction = ft if (i % 5) != 4 else ft.reversed()
        size = spec.data_size_bytes
        if direction is not ft:
            size = max(MIN_SEGMENT, min(size, 120))  # ACK-ish reverse segments
        emit(direction, ACK, size)

    closing = RST | ACK if spec.reset else FIN | ACK
    emit(ft, closing, HANDSHAKE_SIZE)
    return out


def interleave(flows: List[List[Tuple[float, Packet]]]) -> List[Tuple[float, Packet]]:
    """Merge per-flow packet lists into one arrival-time-ordered stream.

    Ties break by generation order, which keeps the stream deterministic.
    """
    merged: List[Tuple[float, int, Packet]] = []
    seq = 0
    for flow in flows:
        for t, pkt in flow:
            merged.append((t, seq, pkt))
            seq += 1
    merged.sort(key=lambda item: (item[0], item[1]))
    return [(t, pkt) for t, _seq, pkt in merged]
