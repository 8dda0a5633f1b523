"""Framed-TCP transport for the distributed shard fabric (DESIGN.md §13).

This is the **only** module in the repository allowed to import ``socket``
(enforced by chclint CHC008): every byte that crosses a process boundary
goes through the codec and framing below, so the wire format is explicit,
versionable, and — unlike bare pickle — cannot execute anything on decode.

Wire format
-----------

A *frame* is a 4-byte big-endian length followed by a UTF-8 JSON body. The
body is a tagged-union encoding of plain data:

* scalars (``None``/bool/int/float/str) encode as themselves,
* lists as JSON arrays,
* tuples as ``{"__t__": [...]}``,
* dicts as ``{"__d__": [[k, v], ...]}`` (key order preserved, non-string
  keys allowed),
* registered message classes (the store wire protocol, the RPC ``_Wire``
  envelope, packets, and the frame envelopes :class:`DataFrame` /
  :class:`ControlFrame`) as ``{"__c__": "<Name>", "a": [field values...]}``.

Anything else is a :class:`CodecError` — an unserializable payload is a bug
in the sender, not something to smuggle through with pickle. Encoding is
one lowering pass feeding one shared JSON encoder; decoding is the JSON
parser alone, reviving tagged objects bottom-up through its ``object_hook``.

Connections
-----------

:class:`Connection` is the client side (shard → store, child → fabric):
non-blocking, with a bounded send queue and seeded-backoff reconnect. A
torn connection is *not* an error surfaced to the engine — frames buffer
(and overflow is counted, never silently dropped) while the transport
reconnects; the simulation-level RPC retransmission and flush dedup are
what guarantee delivery semantics end to end, exactly as they do against
simulated loss. :class:`Listener`/:class:`Peer` are the server side, with
the fault hooks the fabric scripts use: refuse-accepts windows, read
stalls (half-open emulation), and hard resets (``SO_LINGER 0`` → RST).
"""

from __future__ import annotations

import dataclasses
import errno
import json
import math
import os
import random
import select
import socket
import struct
import time
from collections import deque
from itertools import islice
from operator import attrgetter
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.simnet.rpc import _Wire
from repro.store import protocol as _proto
from repro.traffic.packet import FiveTuple, Packet

MAX_FRAME_BYTES = 16 * 1024 * 1024
_LEN = struct.Struct(">I")

#: Reconnect backoff (real seconds): base * 1.6^attempt + seeded jitter,
#: capped. Small enough that a restarted store node is re-reached well
#: inside the engine's retransmission budget at the default time scale.
RECONNECT_BASE_S = 0.02
RECONNECT_CAP_S = 0.25
_CAP_ATTEMPT = math.ceil(math.log(RECONNECT_CAP_S / RECONNECT_BASE_S, 1.6))

#: Most buffers one ``sendmsg`` may gather.
_IOV_MAX = os.sysconf("SC_IOV_MAX")


class CodecError(TypeError):
    """Payload not representable in the explicit wire codec."""


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

_BY_NAME: Dict[str, type] = {}
_BY_TYPE: Dict[type, Tuple[str, Tuple[str, ...]]] = {}

#: Exact types JSON carries as they are.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _lower_items(items: Any) -> List[Any]:
    """Each item lowered; exact scalars pass through without a call."""
    return [v if type(v) in _SCALARS else encode_value(v) for v in items]


#: Exact type -> its lowering: the containers here, one entry per class
#: from :func:`register_message`.
_LOWER: Dict[type, Callable[[Any], Any]] = {
    list: _lower_items,
    tuple: lambda obj: {"__t__": _lower_items(obj)},
    dict: lambda obj: {"__d__": [_lower_items(pair) for pair in obj.items()]},
}


def register_message(cls: type, fields: Optional[Tuple[str, ...]] = None) -> type:
    """Register a message class for codec transport (idempotent).

    ``fields`` must be the leading positional parameters of ``cls``, in
    order: decoding calls ``cls(*values)``.
    """
    if fields is None:
        fields = tuple(f.name for f in dataclasses.fields(cls))
    name = cls.__name__
    values: Callable[[Any], Tuple[Any, ...]]
    if len(fields) > 1:
        values = attrgetter(*fields)
    else:  # attrgetter of one name returns the bare value, not a 1-tuple
        values = lambda obj: tuple(getattr(obj, f) for f in fields)  # noqa: E731

    _LOWER[cls] = lambda obj: {"__c__": name, "a": _lower_items(values(obj))}
    _BY_NAME[name] = cls
    _BY_TYPE[cls] = (name, fields)
    return cls


def encode_value(obj: Any) -> Any:
    """Lower ``obj`` into the JSON-safe tagged-union form."""
    kind = type(obj)
    if kind in _SCALARS:
        return obj
    lower = _LOWER.get(kind)
    if lower is not None:
        return lower(obj)
    # the slow road: a subclass of a plain type travels as its base
    if isinstance(obj, (int, str, float)):
        return obj
    for base in (list, tuple, dict):
        if isinstance(obj, base):
            return _LOWER[base](obj)
    raise CodecError(
        f"type {type(obj).__name__!r} is not wire-encodable; register it or "
        "send plain data (bare pickle is banned on the wire, CHC008)"
    )


def _revive(obj: Dict[str, Any]) -> Any:
    """``object_hook``: one tagged JSON object, children already revived."""
    items = obj.get("__t__")
    if items is not None:
        return tuple(items)
    name = obj.get("__c__")
    if name is not None:
        cls = _BY_NAME.get(name)
        if cls is None:
            raise CodecError(f"unknown wire message type {name!r}")
        return cls(*obj["a"])
    pairs = obj.get("__d__")
    if pairs is not None:
        return dict(pairs)
    raise CodecError(f"untagged dict on the wire: {sorted(obj)!r}")


# check_circular off: what it encodes is the tree encode_value just built
_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_JSON_DECODER = json.JSONDecoder(object_hook=_revive)


def encode_frame(body: Any) -> bytes:
    """Length-prefixed frame bytes for one codec value."""
    payload = _JSON_ENCODER.encode(encode_value(body)).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES")
    return _LEN.pack(len(payload)) + payload


def decode_body(payload: bytes) -> Any:
    """The value one frame body (UTF-8 JSON, exactly one value, no padding) carries."""
    text = payload.decode("utf-8")
    value, end = _JSON_DECODER.raw_decode(text)
    if end != len(text):
        raise CodecError(f"{len(text) - end} stray characters after the frame body")
    return value


@dataclasses.dataclass
class DataFrame:
    """A simulation envelope crossing a process boundary."""

    src: str
    dst: str
    payload: Any
    #: The frame bytes this envelope arrived as (set by :class:`FrameDecoder`,
    #: empty on one built locally) — what the store node appends to its WAL.
    raw: bytes = dataclasses.field(default=b"", compare=False, repr=False)


@dataclasses.dataclass
class ControlFrame:
    """A fabric/control-plane message (plain data, no sim payloads)."""

    body: Dict[str, Any]


data_frame = DataFrame
control_frame = ControlFrame


def _register_protocol() -> None:
    for name in (
        "OpRequest",
        "OpResult",
        "BatchedOpRequest",
        "Overloaded",
        "ReadRequest",
        "ReadResult",
        "WriteRequest",
        "OwnerRequest",
        "BulkOwnerMove",
        "CloneRegistration",
        "TakeoverRequest",
        "WatchRequest",
        "UnwatchRequest",
        "LockReadRequest",
        "WriteUnlockRequest",
        "CallbackMessage",
        "CommitSignal",
        "BatchedCommitSignal",
        "DeleteRequest",
        "BatchedDeleteRequest",
        "PruneRequest",
        "BatchedPruneRequest",
        "NonDetRequest",
        "SnapshotRequest",
        "CheckpointControl",
    ):
        register_message(getattr(_proto, name))
    register_message(FiveTuple)
    register_message(Packet)
    register_message(_Wire, fields=("kind", "request_id", "payload", "ok"))
    register_message(DataFrame, fields=("src", "dst", "payload"))
    register_message(ControlFrame)


_register_protocol()


class FrameDecoder:
    """Incremental length-prefixed frame reassembly from a byte stream."""

    def __init__(self) -> None:
        self._tail = b""  # the incomplete frame the last feed ended in

    def feed(self, data: bytes) -> List[Any]:
        """Append raw bytes; return every now-complete decoded frame body.

        A :class:`DataFrame` comes back with its ``raw`` frame bytes. The
        walk is an offset over ``data``: nothing is moved per frame, and
        only the unfinished tail is kept (copied once per feed)."""
        if self._tail:
            data = self._tail + data
        frames: List[Any] = []
        offset, end = 0, len(data)
        while end - offset >= _LEN.size:
            (length,) = _LEN.unpack_from(data, offset)
            if length > MAX_FRAME_BYTES:
                raise CodecError(f"incoming frame of {length} bytes exceeds limit")
            start = offset + _LEN.size
            stop = start + length
            if stop > end:
                break
            body = decode_body(data[start:stop])
            if type(body) is DataFrame:
                body.raw = data[offset:stop]
            frames.append(body)
            offset = stop
        self._tail = data[offset:]
        return frames


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TransportCounters:
    """Socket-level evidence the fabric records per scenario: a partition
    shows up as ``connect_failures``/``resets``, a heal as ``reconnects``,
    a half-open stall as ``resets`` after silence. These are the "a real
    socket actually broke" witnesses the acceptance criteria require.
    ``frames_sent`` counts logical frames fully written, however many (or
    few) system calls carried them."""

    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    connects: int = 0
    reconnects: int = 0
    connect_failures: int = 0
    resets: int = 0
    tx_dropped: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


_RETRYABLE_ERRNOS = {errno.EAGAIN, errno.EWOULDBLOCK, errno.EINPROGRESS}
_RECV_BYTES = 65536


class _FramedSocket:
    """What both ends of a connection share: one non-blocking socket, a
    queue of encoded frames, the write path and the read path."""

    def __init__(self) -> None:
        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder()
        self._txq: Deque[bytes] = deque()
        #: Bytes of ``_txq[0]`` already written to the *current* socket. The
        #: head frame stays queued until its last byte is out, so a fresh
        #: connection replays it whole (the new peer's decoder saw none of it).
        self._tx_offset = 0
        self.counters = TransportCounters()

    @property
    def alive(self) -> bool:
        return self._sock is not None

    def fileno(self) -> Optional[int]:
        return self._sock.fileno() if self._sock is not None else None

    def _drop_socket(self, count_reset: bool = True) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            if count_reset:
                self.counters.resets += 1

    def _flush(self) -> None:
        """Write queued frames, one ``sendmsg`` for as many as it gathers,
        until the queue is empty or the kernel takes less than offered."""
        txq = self._txq
        while txq and self._sock is not None:
            buffers: List[Any] = list(islice(txq, _IOV_MAX))
            if self._tx_offset:
                buffers[0] = memoryview(buffers[0])[self._tx_offset:]
            try:
                sent = self._sock.sendmsg(buffers)
            except OSError as exc:
                if exc.errno not in _RETRYABLE_ERRNOS:
                    self._drop_socket()  # the cut frame is still _txq[0]
                return
            self.counters.bytes_sent += sent
            written = self._tx_offset + sent
            while txq and written >= len(txq[0]):
                written -= len(txq.popleft())
                self.counters.frames_sent += 1
            self._tx_offset = written
            if written or not sent:
                return  # socket buffer full

    def _read(self) -> List[Any]:
        """Decoded inbound frames; stops at the first short read."""
        frames: List[Any] = []
        while self._sock is not None:
            try:
                data = self._sock.recv(_RECV_BYTES)
            except OSError as exc:
                if exc.errno not in _RETRYABLE_ERRNOS:
                    self._drop_socket()
                break
            if not data:  # orderly EOF: the other side closed — a reset too
                self._drop_socket()
                break
            self.counters.bytes_received += len(data)
            frames += self._decoder.feed(data)
            if len(data) < _RECV_BYTES:
                break  # drained; what arrives later wakes the next pump
        self.counters.frames_received += len(frames)
        return frames


# ---------------------------------------------------------------------------
# client side: reconnecting connection
# ---------------------------------------------------------------------------


class Connection(_FramedSocket):
    """Outbound framed-TCP connection with seeded-backoff reconnect.

    ``send_obj`` never blocks and never raises on a torn socket: frames
    queue (bounded; overflow counted in ``tx_dropped``) and drain once
    :meth:`pump` re-establishes the connection. ``on_connect`` fires after
    every successful (re)connect — callers use it to replay their HELLO.
    """

    def __init__(
        self,
        host: str,
        port: int,
        seed: int = 0,
        label: str = "",
        on_connect: Optional[Callable[["Connection"], None]] = None,
        max_queue: int = 65536,
        connect_timeout_s: float = 0.25,
    ) -> None:
        super().__init__()
        self.host = host
        self.port = port
        self.label = label
        self.on_connect = on_connect
        self._rng = random.Random(seed ^ 0x7D157)
        self._max_queue = max_queue
        self._connect_timeout_s = connect_timeout_s
        self._next_attempt_real = 0.0
        self._attempt = 0
        self._closed = False

    def close(self) -> None:
        self._closed = True
        self._drop_socket(count_reset=False)

    # -- sending -------------------------------------------------------

    def send_obj(self, body: Any) -> None:
        frame = encode_frame(body)
        head = 1 if self._tx_offset else 0  # a half-written head cannot be dropped
        if len(self._txq) - head >= self._max_queue:
            del self._txq[head]
            self.counters.tx_dropped += 1
        self._txq.append(frame)

    # -- pumping -------------------------------------------------------

    def pump(self, now_real: float) -> List[Any]:
        """Progress connect/flush/read; return decoded inbound frames."""
        if self._closed:
            return []
        if self._sock is None:
            if now_real < self._next_attempt_real:
                return []
            if not self._try_connect():
                self._schedule_retry(now_real)
                return []
        self._flush()
        frames = self._read()
        if self._sock is None:  # flush or read hit a reset
            self._schedule_retry(now_real)
        return frames

    def _try_connect(self) -> bool:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.settimeout(self._connect_timeout_s)
            sock.connect((self.host, self.port))
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            sock.close()
            self.counters.connect_failures += 1
            return False
        self._sock = sock
        self._decoder = FrameDecoder()
        self._tx_offset = 0  # a frame cut by the old connection's death restarts
        self.counters.connects += 1
        if self.counters.connects > 1:
            self.counters.reconnects += 1
        self._attempt = 0
        if self.on_connect is not None:
            self.on_connect(self)
        return True

    def _schedule_retry(self, now_real: float) -> None:
        # exponent clamped where the cap is reached: a port refused for
        # minutes gets to 1.6 ** 1511, which overflows a float
        delay = min(
            RECONNECT_CAP_S, RECONNECT_BASE_S * 1.6 ** min(self._attempt, _CAP_ATTEMPT)
        )
        delay *= 1.0 + 0.25 * self._rng.random()
        self._attempt += 1
        self._next_attempt_real = now_real + delay


# ---------------------------------------------------------------------------
# server side: listener + accepted peers
# ---------------------------------------------------------------------------


class Peer(_FramedSocket):
    """One accepted connection on the server side."""

    def __init__(self, sock: socket.socket, address: Tuple[str, int]) -> None:
        super().__init__()
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self.address = address
        #: Half-open fault hook: while True the server never reads this
        #: peer — bytes pile up in kernel buffers exactly as they would
        #: toward a host that silently went away.
        self.stalled = False

    def send_obj(self, body: Any) -> None:
        if self._sock is None:
            return
        self._txq.append(encode_frame(body))

    def pump(self) -> List[Any]:
        """Flush pending writes and read inbound frames (unless stalled)."""
        self._flush()
        if self.stalled:
            return []
        return self._read()

    def close(self, reset: bool = False) -> None:
        """Close; ``reset=True`` sets SO_LINGER 0 so the peer sees RST —
        the fabric's 'sever' fault, a real ECONNRESET, not a polite FIN."""
        if self._sock is None:
            return
        if reset:
            try:
                self._sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            except OSError:
                pass
        self._drop_socket(count_reset=False)


class Listener:
    """Non-blocking accept socket with a refuse-window fault hook."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 64) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self._sock.setblocking(False)
        self.host = host
        self.accepted = 0
        self.refused = 0
        #: While real-time is before this deadline, every incoming connect
        #: is accepted and immediately reset — the client observes a dead
        #: destination (connection refused/reset), the 'partition' fault.
        self.refuse_until_real = 0.0

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def fileno(self) -> int:
        return self._sock.fileno()

    def accept_ready(self, now_real: float) -> List[Peer]:
        peers: List[Peer] = []
        while True:
            try:
                sock, address = self._sock.accept()
            except OSError as exc:
                if exc.errno in _RETRYABLE_ERRNOS:
                    return peers
                return peers
            if now_real < self.refuse_until_real:
                try:
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                    )
                except OSError:
                    pass
                sock.close()
                self.refused += 1
                continue
            self.accepted += 1
            peers.append(Peer(sock, address))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def wait_readable(objs: List[Any], timeout_s: float) -> None:
    """Sleep until any of ``objs`` (Connections/Peers/Listeners) is readable
    or ``timeout_s`` elapses. Centralised here so no other module needs the
    socket layer to pace its loop."""
    fds = []
    for obj in objs:
        fd = obj.fileno() if not isinstance(obj, int) else obj
        if fd is not None:
            fds.append(fd)
    if not fds:
        time.sleep(timeout_s)
        return
    try:
        select.select(fds, [], [], max(0.0, timeout_s))
    except (OSError, ValueError):
        pass


def make_socketpair() -> Tuple[socket.socket, socket.socket]:
    """A connected AF_UNIX pair for unit tests (satellite: ECONNRESET
    coverage without a full fabric). Exposed here so tests do not need to
    import socket themselves."""
    return socket.socketpair()
