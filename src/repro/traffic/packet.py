"""Packet and five-tuple models.

A :class:`Packet` carries everything CHC's metadata machinery needs:

* the five-tuple and TCP flags the NFs inspect,
* the **logical clock** stamped by the root (§5),
* first/last markers used by the handover protocol (§5.1, Figure 4),
* replay/clone markers used by straggler mitigation (§5.3),
* the 32-bit XOR **bit vector** of (instance ID || object ID) pairs used by
  the non-blocking-update recovery protocol (§5.4, Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

PROTO_TCP = 6
PROTO_UDP = 17

# TCP flag bits
FIN = 0x01
SYN = 0x02
RST = 0x04
ACK = 0x10

# Well-known application ports used by chain scenarios (Figure 2).
PORT_FTP = 21
PORT_SSH = 22
PORT_HTTP = 80
PORT_IRC = 6667


@dataclass(frozen=True)
class FiveTuple:
    """(src IP, dst IP, src port, dst port, protocol) — the finest state scope."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: int = PROTO_TCP

    def reversed(self) -> "FiveTuple":
        """The opposite direction of the same connection."""
        return FiveTuple(self.dst_ip, self.src_ip, self.dst_port, self.src_port, self.proto)

    def canonical(self) -> "FiveTuple":
        """Direction-independent form (both directions map to one key)."""
        forward = (self.src_ip, self.src_port)
        backward = (self.dst_ip, self.dst_port)
        if forward <= backward:
            return self
        return self.reversed()

    def key(self) -> Tuple[str, str, int, int, int]:
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.proto)


_packet_ids = iter(range(1, 1 << 62))


@dataclass
class Packet:
    """A simulated packet plus CHC metadata.

    ``clock`` is 0 until the root stamps it. ``size_bytes`` drives both
    NIC serialisation time and throughput accounting.
    """

    five_tuple: FiveTuple
    size_bytes: int = 1434
    flags: int = ACK
    payload: Optional[str] = None
    pkt_id: int = field(default_factory=lambda: next(_packet_ids))

    # --- CHC metadata ---------------------------------------------------
    clock: int = 0                      # logical clock stamped by the root (§5)
    mark_last: bool = False             # handover: last packet to old instance
    mark_first: bool = False            # handover: first packet to new instance
    replayed: bool = False              # straggler mitigation / recovery replay
    replay_target: Optional[str] = None # clone instance ID carried by replays (§5.3)
    replay_end: bool = False            # root's "last replayed packet" marker
    replay_total: Optional[int] = None  # marker only: size of the replay generation
    bitvector: int = 0                  # 32-bit XOR vector (§5.4, Figure 6)
    generation: int = 0                 # root replay pass this copy belongs to
    control: Optional[object] = None    # in-band framework control (move markers)
    priority: int = 0                   # shed policy: lower sheds first (§8)

    # --- measurement ----------------------------------------------------
    ingress_time: float = 0.0           # when the packet entered the chain
    queued_at: float = 0.0              # when it reached the current NF's queue

    @property
    def size_bits(self) -> int:
        return self.size_bytes * 8

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & SYN) and not bool(self.flags & ACK)

    @property
    def is_syn_ack(self) -> bool:
        return bool(self.flags & SYN) and bool(self.flags & ACK)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & RST)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & FIN)

    def copy(self) -> "Packet":
        """A distinct packet object with the same contents (same pkt_id).

        Every field, positionally, in declaration order: the root log and
        each mirror/replica copy come through here, and ``dataclasses.replace``
        spent 19 ``getattr`` calls on what is one constructor call.
        """
        return Packet(
            self.five_tuple, self.size_bytes, self.flags, self.payload, self.pkt_id,
            self.clock, self.mark_last, self.mark_first, self.replayed,
            self.replay_target, self.replay_end, self.replay_total, self.bitvector,
            self.generation, self.control, self.priority,
            self.ingress_time, self.queued_at,
        )

    def flow_key(self) -> Tuple[str, str, int, int, int]:
        return self.five_tuple.key()

    def __repr__(self) -> str:  # compact, for test failure readability
        ft = self.five_tuple
        return (
            f"Packet(#{self.pkt_id} clk={self.clock} {ft.src_ip}:{ft.src_port}->"
            f"{ft.dst_ip}:{ft.dst_port}/{ft.proto} {self.size_bytes}B flags={self.flags:#x})"
        )


def scope_fields(five_tuple: FiveTuple, fields: Tuple[str, ...]) -> Tuple:
    """Project a five-tuple onto a scope (a subset of header fields).

    Scopes are how ``.scope()`` declares state granularity (§4.1); e.g. a
    per-source-host object has scope ``("src_ip",)``.
    """
    return tuple(getattr(five_tuple, name) for name in fields)
