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
* registered message classes (every dataclass :mod:`repro.store.protocol`
  defines, the RPC ``_Wire`` envelope, packets, the frame bodies
  :class:`DataBatch` / :class:`ControlFrame` and the batch element
  :class:`DataFrame`) as
  ``{"__c__": "<Name>", "a": [field values...]}``.

Anything else is a :class:`CodecError` — an unserializable payload is a bug
in the sender, not something to smuggle through with pickle. Encoding is
one lowering pass feeding one shared JSON encoder; decoding is the JSON
parser alone, reviving tagged objects bottom-up through its ``object_hook``.

A :class:`DataBatch` — every data-path frame — is the one message laid out
by columns instead: ``{"__c__": "DataBatch", "a": [tags, groups]}``. Its
envelopes are grouped by (payload class, RPC wire kind) in order of first
appearance, and ``tags`` gives each envelope's group index in send order,
which is how decoding restores that order. A group is
``[class, kind, column_kinds, column...]``:

* ``class`` is the registered name of the payload (the ``_Wire``'s payload
  when the envelope carries one), or ``null`` for any other payload, which
  then travels whole in a single ``payload`` column;
* ``kind`` is the ``_Wire`` kind (``"request"``/``"response"``/
  ``"oneway"``), or ``null`` when the envelope payload is not split into a
  ``_Wire``;
* the columns are ``src``, ``dst``, then ``request_id`` and ``ok`` when
  ``kind`` is set, then one per registered field of ``class``;
* ``column_kinds`` has one letter per column: ``v`` — each cell is a value
  in the tagged form above (a column of scalars is exactly its cells),
  ``t`` — each cell is a tuple of scalars written as an array, ``d`` — each
  cell is a dict of scalar keys and values written as ``[k, v]`` pairs.

So the common envelopes — an ``OpRequest``, its ``OpResult`` ACK, a
``CommitSignal`` — go through the C JSON encoder and decoder with no
per-envelope tagged object and no ``object_hook`` call. The layout is a
function of the values alone, so a batch this encoder wrote re-encodes,
once decoded, to the bytes it arrived as (the store WAL relies on this).

Decoding is total: a body that is not one value of this format — bad
UTF-8 or JSON, nesting past the recursion limit, a malformed tag, batch or
field count — is a :class:`CodecError`, and the connection it arrived on
is dropped (counted in ``codec_errors``) while the process goes on.

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
from itertools import chain, compress, islice, repeat
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

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
        if cls is DataBatch:
            return _revive_batch(obj.get("a"))
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
    """The value one frame body (UTF-8 JSON, exactly one value, no padding)
    carries. Total: any body that is not one is a :class:`CodecError`,
    whatever layer — UTF-8, JSON, nesting depth, a tag's shape, a class's
    arity — found it wrong."""
    try:
        text = payload.decode("utf-8")
        value, end = _JSON_DECODER.raw_decode(text)
    except CodecError:
        raise
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        raise CodecError(f"malformed frame body: {exc!r}") from exc
    if end != len(text):
        raise CodecError(f"{len(text) - end} stray characters after the frame body")
    return value


@dataclasses.dataclass
class DataFrame:
    """A simulation envelope crossing a process boundary (one element of a
    :class:`DataBatch`)."""

    src: str
    dst: str
    payload: Any


@dataclasses.dataclass
class DataBatch:
    """The data-path frame body: every envelope one loop turn of a sender
    addressed to one peer, in send order."""

    frames: List[DataFrame]
    #: The frame bytes this batch arrived as (set by :class:`FrameDecoder`,
    #: empty on one built locally) — what the store node appends to its WAL.
    raw: bytes = dataclasses.field(default=b"", compare=False, repr=False)


@dataclasses.dataclass
class ControlFrame:
    """A fabric/control-plane message (plain data, no sim payloads)."""

    body: Dict[str, Any]


# -- the columnar DataBatch layout (module docstring, "Wire format") --------

_SRC, _DST, _PAYLOAD = attrgetter("src"), attrgetter("dst"), attrgetter("payload")
_REQUEST_ID, _OK = attrgetter("request_id"), attrgetter("ok")


def _group_key(frame: DataFrame) -> Tuple[type, Optional[str]]:
    """(payload class, wire kind or None) of one envelope."""
    payload = frame.payload
    if type(payload) is _Wire and type(payload.kind) is str:
        return type(payload.payload), payload.kind
    return type(payload), None


def _column(cells: List[Any]) -> Tuple[str, List[Any]]:
    """A column's kind letter and its JSON-ready cells."""
    if _SCALARS.issuperset(map(type, cells)):
        return "v", cells
    types = set(map(type, cells))
    if types == {tuple} and _SCALARS.issuperset(map(type, chain.from_iterable(cells))):
        return "t", cells  # the JSON encoder writes a tuple as an array
    if types == {dict}:
        pairs = [list(cell.items()) for cell in cells]
        if _SCALARS.issuperset(map(type, chain.from_iterable(chain.from_iterable(pairs)))):
            return "d", pairs
    return "v", _lower_items(cells)


def _lower_group(frames: List[DataFrame], cls: type, kind: Optional[str]) -> List[Any]:
    cells = [list(map(_SRC, frames)), list(map(_DST, frames))]
    payloads = list(map(_PAYLOAD, frames))
    if kind is not None:
        cells += [list(map(_REQUEST_ID, payloads)), list(map(_OK, payloads))]
        payloads = list(map(_PAYLOAD, payloads))
    name, fields = _BY_TYPE.get(cls, (None, ()))
    if name is None:
        cells.append(payloads)  # not a registered class: the payload whole
    cells += [list(map(attrgetter(field), payloads)) for field in fields]
    kinds, columns = zip(*map(_column, cells))
    return [name, kind, "".join(kinds), *columns]


def _lower_batch(batch: DataBatch) -> Dict[str, Any]:
    frames = batch.frames
    if type(frames) is not list or not {DataFrame}.issuperset(map(type, frames)):
        raise CodecError("a DataBatch carries a list of DataFrames")
    keys = list(map(_group_key, frames))
    tag_of = {key: tag for tag, key in enumerate(dict.fromkeys(keys))}
    tags = list(map(tag_of.__getitem__, keys))
    groups = [
        _lower_group(
            frames if len(tag_of) == 1 else list(compress(frames, map(tag.__eq__, tags))),
            cls,
            kind,
        )
        for (cls, kind), tag in tag_of.items()
    ]
    return {"__c__": "DataBatch", "a": [tags, groups]}


def _revive_group(group: Any, count: int) -> List[DataFrame]:
    """One group's ``count`` envelopes, in the order its columns hold them."""
    if type(group) is not list or len(group) < 3:
        raise CodecError("a DataBatch group is not [class, kind, kinds, column...]")
    name, kind, kinds, *columns = group
    cls: Optional[type] = None
    if name is not None:
        cls = _BY_NAME.get(name)
        if cls is None:
            raise CodecError(f"unknown wire message type {name!r}")
    if kind is not None and type(kind) is not str:
        raise CodecError(f"DataBatch wire kind {kind!r} is not a string")
    width = 2 + (2 if kind is not None else 0) + (len(_BY_TYPE[cls][1]) if cls else 1)
    if type(kinds) is not str or len(kinds) != len(columns) or len(columns) != width:
        raise CodecError(f"a {name} group needs {width} columns and kinds for each")
    cells: List[Iterable[Any]] = []
    for letter, column in zip(kinds, columns):
        if type(column) is not list or len(column) != count:
            raise CodecError(f"a {name} column is not a list of {count} cells")
        if letter == "v":
            cells.append(column)
        elif letter == "t":
            cells.append(map(tuple, column))
        elif letter == "d":
            cells.append(map(dict, column))
        else:
            raise CodecError(f"unknown DataBatch column kind {letter!r}")
    srcs, dsts, *rest = cells
    if kind is not None:
        request_ids, oks, *rest = rest
    payloads = rest[0] if cls is None else map(cls, *rest)
    if kind is not None:
        payloads = map(_Wire, repeat(kind), request_ids, payloads, oks)
    return list(map(DataFrame, srcs, dsts, payloads))


def _revive_batch(body: Any) -> DataBatch:
    """The columnar layout back to a :class:`DataBatch`, envelopes in send
    order; anything malformed is a :class:`CodecError`."""
    if type(body) is not list or len(body) != 2 or not all(type(part) is list for part in body):
        raise CodecError("a DataBatch body is [tags, groups]")
    tags, groups = body
    if not {int}.issuperset(map(type, tags)) or (
        tags and not 0 <= min(tags) <= max(tags) < len(groups)
    ):
        raise CodecError(f"DataBatch group tags outside 0..{len(groups) - 1}")
    # a cell its column kind cannot hold raises here; decode_body makes it
    # a CodecError
    built = [_revive_group(group, tags.count(tag)) for tag, group in enumerate(groups)]
    if len(built) == 1:
        return DataBatch(built[0])
    # every group holds exactly as many envelopes as tags name it, so no
    # iterator runs dry here
    iterators: List[Iterator[DataFrame]] = [iter(part) for part in built]
    return DataBatch(list(map(next, map(iterators.__getitem__, tags))))


def _register_protocol() -> None:
    # the store wire vocabulary is every dataclass repro.store.protocol defines
    for cls in vars(_proto).values():
        if isinstance(cls, type) and dataclasses.is_dataclass(cls):
            if cls.__module__ == _proto.__name__:
                register_message(cls)
    register_message(FiveTuple)
    register_message(Packet)
    register_message(_Wire, fields=("kind", "request_id", "payload", "ok"))
    register_message(DataFrame)
    register_message(DataBatch, fields=("frames",))
    _LOWER[DataBatch] = _lower_batch  # the one batch layout: columnar
    register_message(ControlFrame)


_register_protocol()


# -- a turn's outbox: one-way N-entry messages folded (DESIGN.md §13.1) ------

#: One-way messages made of parallel per-entry tuples -> those tuples. One
#: such message with the entries of two says what the two said in turn.
_FOLDABLE: Dict[type, Callable[[Any], Tuple[Tuple[Any, ...], ...]]] = {
    _proto.CommitSignal: attrgetter("clocks", "vector_tags"),
    _proto.DeleteRequest: attrgetter("clocks", "vectors", "generations"),
    _proto.PruneRequest: lambda message: (message.clocks,),
}


class Outbox:
    """One loop turn's envelopes toward one peer, in send order.

    A one-way :class:`~repro.store.protocol.CommitSignal`,
    :class:`~repro.store.protocol.DeleteRequest` or
    :class:`~repro.store.protocol.PruneRequest` is folded into the last
    envelope queued on its (src, dst) when that one is a one-way message of
    the same class: the entries are concatenated in order. Anything else on
    that (src, dst) — an RPC request or response, another class — ends the
    run, so per-(src, dst) order, the only order the engine keeps, holds.
    """

    __slots__ = ("_frames", "_runs", "_grown")

    def __init__(self) -> None:
        self._frames: List[DataFrame] = []
        #: (src, dst) -> the open run its last envelope heads:
        #: ``[index in _frames, first message, messages folded into it...]``.
        self._runs: Dict[Tuple[str, str], List[Any]] = {}
        #: Runs something was folded into, written back by :meth:`take`.
        self._grown: List[List[Any]] = []

    def __bool__(self) -> bool:
        return bool(self._frames)

    def add(self, src: str, dst: str, payload: Any) -> bool:
        """Queue one envelope; True when it was folded into an earlier one."""
        runs = self._runs
        if type(payload) is _Wire and payload.kind == "oneway":
            message = payload.payload
            if type(message) in _FOLDABLE:
                key = (src, dst)
                run = runs.get(key)
                if run is not None and type(run[1]) is type(message):
                    if len(run) == 2:
                        self._grown.append(run)
                    run.append(message)
                    return True
                runs[key] = [len(self._frames), message]
                self._frames.append(DataFrame(src, dst, payload))
                return False
        if runs:
            runs.pop((src, dst), None)
        self._frames.append(DataFrame(src, dst, payload))
        return False

    def take(self) -> List[DataFrame]:
        """The queued envelopes, each run folded into its first; the outbox
        starts the next turn empty."""
        frames = self._frames
        for index, *messages in self._grown:
            cls = type(messages[0])
            columns = zip(*map(_FOLDABLE[cls], messages))
            head = frames[index]
            wire = head.payload
            message = cls(*(tuple(chain.from_iterable(column)) for column in columns))
            frames[index] = DataFrame(
                head.src, head.dst, _Wire("oneway", wire.request_id, message, wire.ok)
            )
        self._frames = []
        self._runs.clear()
        self._grown = []
        return frames


class FrameDecoder:
    """Incremental length-prefixed frame reassembly from a byte stream."""

    def __init__(self) -> None:
        self._tail = b""  # the incomplete frame the last feed ended in

    def feed(self, data: bytes) -> List[Any]:
        """Append raw bytes; return every now-complete decoded frame body.

        A :class:`DataBatch` comes back with its ``raw`` frame bytes. The
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
            if type(body) is DataBatch:
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
    #: Connections dropped because an inbound frame did not decode.
    codec_errors: int = 0

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
            try:
                frames += self._decoder.feed(data)
            except CodecError:
                # the sender is broken, not this process: drop the socket
                # (a Connection redials with a fresh decoder, a Peer is
                # reaped like any dead one)
                self.counters.codec_errors += 1
                self._drop_socket(count_reset=False)
                break
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
