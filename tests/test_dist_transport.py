"""Transport-layer unit tests (DESIGN.md §13): codec, framing, real TCP
connections, and — at socketpair scale, no fabric — the PR's core claim
that the in-process delivery semantics (flush retransmission against the
dedup log, ``RpcGaveUp``) absorb *real* socket loss unchanged.
"""

from __future__ import annotations

import dataclasses
import enum
import errno
import json
import struct
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dist.shard import RemoteStoreHandle
from repro.dist.store_node import FrameWAL, StoreNode
from repro.dist.transport import (
    _BY_NAME,
    _BY_TYPE,
    RECONNECT_CAP_S,
    CodecError,
    Connection,
    ControlFrame,
    DataBatch,
    DataFrame,
    FrameDecoder,
    Listener,
    decode_body,
    encode_frame,
    encode_value,
    make_socketpair,
)
from repro.simnet.network import Link, Network
from repro.simnet.rpc import RpcGaveUp, _Wire
from repro.store import protocol
from repro.store.client import StoreClient
from repro.store.cluster import StoreCluster
from repro.store.datastore import DatastoreInstance
from repro.store.protocol import (
    BatchedOpRequest,
    CommitSignal,
    DeleteRequest,
    OpRequest,
    OpResult,
    PruneRequest,
    ReadRequest,
    SnapshotRequest,
    WriteRequest,
)
from repro.traffic.packet import FiveTuple, Packet
from tests.conftest import default_specs, make_packet

FLOW = ("10.0.0.1", "52.0.0.1", 1234, 80, 6)


def roundtrip(body):
    frames = FrameDecoder().feed(encode_frame(body))
    assert len(frames) == 1
    return frames[0]


# -- the reference codec the one-pass encoder must agree with: a recursive
# -- isinstance walk each way over the same registry, plus the columnar
# -- DataBatch layout written out row by row ----------------------------------


def ref_encode_value(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, list):
        return [ref_encode_value(item) for item in obj]
    if isinstance(obj, tuple):
        return {"__t__": [ref_encode_value(item) for item in obj]}
    if isinstance(obj, dict):
        return {
            "__d__": [[ref_encode_value(k), ref_encode_value(v)] for k, v in obj.items()]
        }
    if type(obj) is DataBatch:
        return ref_encode_batch(obj)
    entry = _BY_TYPE.get(type(obj))
    if entry is not None:
        name, fields = entry
        return {"__c__": name, "a": [ref_encode_value(getattr(obj, f)) for f in fields]}
    raise CodecError(type(obj).__name__)


def ref_decode_value(obj):
    if isinstance(obj, list):
        return [ref_decode_value(item) for item in obj]
    if isinstance(obj, dict):
        if "__t__" in obj:
            return tuple(ref_decode_value(item) for item in obj["__t__"])
        if "__d__" in obj:
            return {ref_decode_value(k): ref_decode_value(v) for k, v in obj["__d__"]}
        if obj.get("__c__") == "DataBatch":
            return ref_decode_batch(*obj["a"])
        if "__c__" in obj:
            cls = _BY_NAME[obj["__c__"]]
            values = [ref_decode_value(item) for item in obj["a"]]
            return cls(**dict(zip(_BY_TYPE[cls][1], values)))
        raise CodecError(f"untagged dict on the wire: {sorted(obj)!r}")
    return obj


def ref_scalar(value):
    return value is None or type(value) in (bool, int, float, str)


def ref_column(cells):
    """(kind letter, JSON cells) of one batch column."""
    if all(ref_scalar(cell) for cell in cells):
        return "v", list(cells)
    if all(type(cell) is tuple and all(map(ref_scalar, cell)) for cell in cells):
        return "t", [list(cell) for cell in cells]
    if all(
        type(cell) is dict and all(ref_scalar(k) and ref_scalar(v) for k, v in cell.items())
        for cell in cells
    ):
        return "d", [[[k, v] for k, v in cell.items()] for cell in cells]
    return "v", [ref_encode_value(cell) for cell in cells]


def ref_encode_batch(batch):
    """Rows grouped by (payload class, wire kind) in order of first
    appearance, one tag per envelope, then each group's rows as columns."""
    rows, tags = {}, []
    for frame in batch.frames:
        payload, kind, row = frame.payload, None, [frame.src, frame.dst]
        if type(payload) is _Wire and type(payload.kind) is str:
            kind = payload.kind
            row += [payload.request_id, payload.ok]
            payload = payload.payload
        entry = _BY_TYPE.get(type(payload))
        row += [getattr(payload, f) for f in entry[1]] if entry else [payload]
        rows.setdefault((type(payload), kind), []).append(row)
        tags.append(list(rows).index((type(payload), kind)))
    groups = []
    for (cls, kind), group_rows in rows.items():
        entry = _BY_TYPE.get(cls)
        letters, columns = zip(*(ref_column(column) for column in zip(*group_rows)))
        groups.append([entry[0] if entry else None, kind, "".join(letters), *columns])
    return {"__c__": "DataBatch", "a": [tags, groups]}


def ref_decode_batch(tags, groups):
    per_group = []
    for name, kind, letters, *columns in groups:
        revived = []
        for letter, column in zip(letters, columns):
            if letter == "t":
                revived.append([tuple(cell) for cell in column])
            elif letter == "d":
                revived.append([{k: v for k, v in cell} for cell in column])
            else:
                revived.append([ref_decode_value(cell) for cell in column])
        frames = []
        for src, dst, *rest in zip(*revived):
            if kind is not None:
                request_id, ok, *rest = rest
            if name is None:
                (payload,) = rest
            else:
                cls = _BY_NAME[name]
                payload = cls(**dict(zip(_BY_TYPE[cls][1], rest)))
            if kind is not None:
                payload = _Wire(kind=kind, request_id=request_id, payload=payload, ok=ok)
            frames.append(DataFrame(src=src, dst=dst, payload=payload))
        per_group.append(frames)
    taken = [0] * len(per_group)
    ordered = []
    for tag in tags:
        ordered.append(per_group[tag][taken[tag]])
        taken[tag] += 1
    return DataBatch(ordered)


def wire_text(value):
    """Canonical JSON of a value's lowered form: equal text means equal
    values *and* equal types (``true`` is not ``1``, a tuple is not a list,
    and ``_Wire`` — which has no ``__eq__`` — compares by its fields)."""
    return json.dumps(ref_encode_value(value))


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)
keys = st.one_of(scalars, st.tuples(scalars, scalars))
plain = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(keys, inner, max_size=3),
    ),
    max_leaves=8,
)


def messages(field_values):
    """An instance of any registered class, fields drawn from ``field_values``
    (a DataBatch carries a list of DataFrames of them)."""

    def build(cls):
        if cls is DataBatch:
            frame = st.tuples(field_values, field_values, field_values).map(
                lambda values: DataFrame(*values)
            )
            return st.lists(frame, max_size=3).map(DataBatch)
        return st.tuples(*[field_values] * len(_BY_TYPE[cls][1])).map(
            lambda values: cls(*values)
        )

    return st.sampled_from(sorted(_BY_TYPE, key=lambda cls: cls.__name__)).flatmap(build)


#: plain data, messages of plain data, and messages nested in messages and
#: containers (the shape of every real envelope: DataFrame > _Wire > request)
wire_values = st.recursive(
    plain,
    lambda inner: st.one_of(
        messages(inner), st.lists(inner, max_size=2), st.lists(inner, max_size=2).map(tuple)
    ),
    max_leaves=6,
)

endpoints = st.one_of(st.sampled_from(["s0-entry-0", "store0", "root0"]), plain)
#: the shapes a bridge really carries: scalar and tuple-of-tuple args, a
#: TS dict, a commit signal — so whole columns come out tuple- or dict-kind
carried = st.one_of(
    st.builds(
        OpRequest,
        key=st.text(max_size=6),
        op=st.sampled_from(["incr", "set"]),
        args=st.one_of(
            st.lists(scalars, max_size=2).map(tuple),
            st.lists(st.tuples(scalars, scalars), max_size=2).map(tuple),
        ),
        clock=st.integers(0, 2**40),
        blocking=st.booleans(),
    ),
    st.builds(
        OpResult,
        value=plain,
        ts=st.dictionaries(st.text(max_size=4), st.integers(0, 2**40), max_size=2),
        state=st.one_of(st.none(), plain),
    ),
    st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**32)), min_size=1, max_size=3).map(
        lambda rows: CommitSignal(*zip(*rows))
    ),
)
inner_payloads = st.one_of(carried, messages(plain), plain)
envelopes = st.builds(
    DataFrame,
    endpoints,
    endpoints,
    st.one_of(
        st.builds(
            _Wire,
            st.sampled_from(["request", "response", "oneway"]),
            st.integers(0, 2**31),
            inner_payloads,
            st.booleans(),
        ),
        inner_payloads,
    ),
)
batches = st.lists(envelopes, max_size=12).map(DataBatch)


def batch_body(tags, groups):
    """A DataBatch frame body written by hand."""
    return json.dumps({"__c__": "DataBatch", "a": [tags, groups]}).encode()


#: one oneway PruneRequest, well formed, for the malformed cases to break
PRUNE_GROUP = ["PruneRequest", "oneway", "vvvvt", ["root0"], ["store0"], [0], [True], [[9]]]
MALFORMED_BATCHES = {
    "column shorter than the tags": ([0, 0], [PRUNE_GROUP]),
    "tag out of range": ([0, 1], [PRUNE_GROUP]),
    "negative tag": ([-1], [PRUNE_GROUP]),
    "bool tag": ([False], [PRUNE_GROUP]),
    "unknown class": ([0], [["NoSuchMessage", *PRUNE_GROUP[1:]]]),
    "unknown column kind": ([0], [[*PRUNE_GROUP[:2], "vvvvx", *PRUNE_GROUP[3:]]]),
    "non-list column": ([0], [[*PRUNE_GROUP[:3], "root0", *PRUNE_GROUP[4:]]]),
    "missing column": ([0], [PRUNE_GROUP[:-1]]),
    "group not a list": ([0], ["PruneRequest"]),
    "wire kind not a string": ([0], [[PRUNE_GROUP[0], 7, *PRUNE_GROUP[2:]]]),
    "tuple cell not an array": (
        [0],
        [["PruneRequest", "oneway", "vvvvt", ["r"], ["s"], [0], [True], [5]]],
    ),
    "dict cell not pairs": ([0], [[None, None, "vvd", ["a"], ["b"], [[[1, 2, 3]]]]]),
    "unhashable dict key": ([0], [[None, None, "vvd", ["a"], ["b"], [[[[1], 2]]]]]),
}

GOLDEN_FRAMES = [
    (
        DataFrame(
            "s0-entry-0",
            "store0",
            _Wire(
                "request",
                7,
                OpRequest(
                    key="s0-entry\x1fhits\x1f10.0.0.1|52.0.0.1|1004|80|6",
                    op="incr",
                    args=(1,),
                    instance="s0-entry-0",
                    clock=65537,
                    seq=3,
                    blocking=False,
                    vector_tag=65537,
                ),
            ),
        ),
        b'\x00\x00\x00\xf3{"__c__":"DataFrame","a":["s0-entry-0","store0",{"__c__":"_Wire",'
        b'"a":["request",7,{"__c__":"OpRequest","a":["s0-entry\\u001fhits\\u001f10.0.0.1|'
        b'52.0.0.1|1004|80|6","incr",{"__t__":[1]},"s0-entry-0",65537,3,false,65537,true,'
        b"false,false]},true]}]}",
    ),
    (
        DataFrame(
            "store0",
            "s0-entry-0",
            _Wire("response", 7, OpResult(value=5, ts={"s0-entry-0": 65537})),
        ),
        b'\x00\x00\x00\xa4{"__c__":"DataFrame","a":["store0","s0-entry-0",{"__c__":"_Wire",'
        b'"a":["response",7,{"__c__":"OpResult","a":[5,{"__d__":[["s0-entry-0",65537]]},'
        b"false,null]},true]}]}",
    ),
    (
        DataFrame("store0", "root0", _Wire("oneway", 0, CommitSignal((65537,), (65537,)))),
        b'\x00\x00\x00\x97{"__c__":"DataFrame","a":["store0","root0",{"__c__":"_Wire",'
        b'"a":["oneway",0,{"__c__":"CommitSignal","a":[{"__t__":[65537]},{"__t__":[65537]}]},'
        b"true]}]}",
    ),
]

#: What a fabric socket carries: one loop turn's envelopes to one peer.
GOLDEN_BATCH = (
    DataBatch(
        [
            GOLDEN_FRAMES[0][0],
            DataFrame("root0", "store0", _Wire("oneway", 0, PruneRequest((65536,)))),
        ]
    ),
    b'\x00\x00\x01G{"__c__":"DataBatch","a":[[0,1],[["OpRequest","request","vvvvvvtvvvvvvvv",'
    b'["s0-entry-0"],["store0"],[7],[true],["s0-entry\\u001fhits\\u001f10.0.0.1|52.0.0.1|1004|80|6"],'
    b'["incr"],[[1]],["s0-entry-0"],[65537],[3],[false],[65537],[true],[false],[false]],'
    b'["PruneRequest","oneway","vvvvt",["root0"],["store0"],[0],[true],[[65536]]]]]}',
)


#: the store wire vocabulary: one message per one-way step, whatever its count
PROTOCOL_MESSAGES = [
    "BatchedOpRequest",
    "BulkOwnerMove",
    "CallbackMessage",
    "CloneRegistration",
    "CommitSignal",
    "DeleteRequest",
    "LockReadRequest",
    "NonDetRequest",
    "OpRequest",
    "OpResult",
    "Overloaded",
    "OwnerRequest",
    "PruneRequest",
    "ReadRequest",
    "ReadResult",
    "SnapshotRequest",
    "TakeoverRequest",
    "WatchRequest",
    "WriteRequest",
    "WriteUnlockRequest",
]


def framed(body):
    """``body`` behind its length prefix, as a socket carries it."""
    return struct.pack(">I", len(body)) + body


#: bodies that once escaped the codec as KeyError, TypeError,
#: JSONDecodeError, UnicodeDecodeError, ValueError or RecursionError
MALFORMED_BODIES = {
    "class without fields": b'{"__c__":"PruneRequest"}',
    "too many fields": b'{"__c__":"PruneRequest","a":[1,2,3]}',
    "fields not an array": b'{"__c__":"PruneRequest","a":5}',
    "cut json": b'{"__t__":[1',
    "not utf-8": b'"\xff"',
    "dict pair of three": b'{"__d__":[[1,2,3]]}',
    "unhashable dict key": b'{"__d__":[[[1],2]]}',
    "tuple of an int": b'{"__t__":5}',
    "nested past the recursion limit": b"[" * 200_000,
    "control frame without a body": b'{"__c__":"ControlFrame","a":[]}',
}

#: the pinned frame bodies the mutation test starts from
GOLDEN_BODIES = [golden[4:] for _frame, golden in GOLDEN_FRAMES] + [GOLDEN_BATCH[1][4:]]


@st.composite
def mutated_bodies(draw):
    """A pinned or random batch body with one to three byte-level faults."""
    body = draw(
        st.one_of(
            st.sampled_from(GOLDEN_BODIES),
            batches.map(lambda batch: encode_frame(batch)[4:]),
        )
    )
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(body)))
        stop = draw(st.integers(start, len(body)))
        fault = draw(st.sampled_from(["flip", "truncate", "splice", "duplicate"]))
        if fault == "flip" and start < len(body):
            flipped = body[start] ^ draw(st.integers(1, 255))
            body = body[:start] + bytes([flipped]) + body[start + 1:]
        elif fault == "truncate":
            body = body[:start]
        elif fault == "splice":
            other = draw(st.sampled_from(GOLDEN_BODIES))
            cut = draw(st.integers(0, len(other)))
            body = body[:start] + other[cut:] + body[stop:]
        elif fault == "duplicate":
            body = body[:stop] + body[start:stop] + body[stop:]
    return body


class TestCodec:
    def test_scalars_and_containers(self):
        for value in (None, True, False, 0, -7, 3.25, "x", ["a", 1], [[1], [2]]):
            assert roundtrip(value) == value

    def test_tuples_and_nonstring_dict_keys_survive(self):
        body = {("k", 5): (1, 2, "three"), 9: {"nested": (None,)}}
        out = roundtrip(body)
        assert out == body
        assert isinstance(out[("k", 5)], tuple)

    def test_wire_envelope_with_op_request(self):
        op = OpRequest(key="k", op="incr", args=(1,), instance="nf-0", clock=9, seq=2)
        frame = roundtrip(DataFrame("nf-0", "store0", _Wire("request", 4, op)))
        assert isinstance(frame, DataFrame)
        assert (frame.src, frame.dst) == ("nf-0", "store0")
        wire = frame.payload
        assert isinstance(wire, _Wire) and wire.request_id == 4
        inner = wire.payload
        assert isinstance(inner, OpRequest)
        assert (inner.key, inner.op, inner.args, inner.clock, inner.seq) == (
            "k", "incr", (1,), 9, 2,
        )

    def test_control_envelope(self):
        frame = roundtrip(ControlFrame({"type": "hello", "names": ["a", "b"], "pid": 7}))
        assert isinstance(frame, ControlFrame)
        assert frame.body == {"type": "hello", "names": ["a", "b"], "pid": 7}

    def test_packet_roundtrip(self):
        packet = make_packet(clock=17)
        out = roundtrip(packet)
        assert out.five_tuple == packet.five_tuple
        assert out.clock == 17

    @pytest.mark.parametrize(
        "message",
        [
            # one field: attrgetter of a single name yields the bare value,
            # not a 1-tuple — the trap that wedged the prototype's fabric
            PruneRequest(clocks=(65537,)),
            # several clocks in one message: the shape the batched prune used to carry
            pytest.param(PruneRequest(clocks=(1, 2, 3)), id="BatchedPruneRequest"),
            SnapshotRequest(prefix="s0-"),
            DeleteRequest(clocks=(1, 3), vectors=(2, 4), generations=(0, 1)),
            CommitSignal(clocks=(65537, 65538), vector_tags=(1, 2)),
            BatchedOpRequest(
                entries=(OpRequest("a", "incr", (1,)), OpRequest("b", "set", ((1, 2),))),
                instance="nf-0",
            ),
            OpResult(value=(1, [2, {"k": (3,)}]), ts={"nf-0": 5, "nf-1": 6}, state={7: "x"}),
        ],
        ids=lambda message: type(message).__name__,
    )
    def test_named_shapes(self, message):
        out = roundtrip(message)
        assert type(out) is type(message) and out == message

    def test_subclasses_of_plain_types_travel_as_their_base(self):
        class Port(int):
            pass

        class Name(str):
            pass

        class Pair(tuple):
            pass

        class Color(enum.IntEnum):
            RED = 2

        body = [Port(80), Name("nf-0"), Pair((1, 2)), Color.RED, {Name("k"): Port(1)}]
        assert encode_frame(body) == encode_frame([80, "nf-0", (1, 2), 2, {"k": 1}])
        out = roundtrip(OpRequest(key=Name("k"), op="incr", clock=Port(9)))
        assert type(out.key) is str and type(out.clock) is int

    @settings(max_examples=300, deadline=None)
    @given(wire_values)
    def test_roundtrip_and_reference_agreement(self, value):
        # lowering: the one-pass encoder and the old recursive walk agree
        lowered = encode_value(value)
        assert json.dumps(lowered) == wire_text(value)
        # reviving: the object_hook decoder and the old recursive walk agree,
        # and both give back the value that went in
        body = encode_frame(value)[4:]
        assert wire_text(decode_body(body)) == wire_text(value)
        assert wire_text(ref_decode_value(json.loads(body))) == wire_text(value)

    @settings(max_examples=200, deadline=None)
    @given(messages(plain))
    def test_every_registered_class_roundtrips(self, message):
        out = roundtrip(message)
        assert type(out) is type(message)
        assert wire_text(out) == wire_text(message)

    def test_registry_maps_both_ways_and_fields_are_positional(self):
        # the strategy above samples classes from the registry itself, so a
        # class registered tomorrow is covered without touching this file
        assert {PruneRequest, Packet, _Wire, DataFrame, DataBatch, ControlFrame} <= set(_BY_TYPE)
        for cls, (name, fields) in _BY_TYPE.items():
            assert _BY_NAME[name] is cls
            values = list(range(len(fields)))
            if cls is DataBatch:  # a batch carries a list of DataFrames, nothing else
                values = [[DataFrame(*range(3))]]
            message = cls(*values)
            assert [getattr(roundtrip(message), f) for f in fields] == values

    def test_registry_is_the_protocol_module_and_the_frames(self):
        # the store vocabulary is every dataclass repro.store.protocol
        # defines: a message added there travels without a second list
        defined = {
            cls
            for cls in vars(protocol).values()
            if isinstance(cls, type)
            and dataclasses.is_dataclass(cls)
            and cls.__module__ == protocol.__name__
        }
        assert sorted(cls.__name__ for cls in defined) == PROTOCOL_MESSAGES
        frames = {FiveTuple, Packet, _Wire, DataFrame, DataBatch, ControlFrame}
        assert set(_BY_TYPE) == defined | frames

    @pytest.mark.parametrize("frame,golden", GOLDEN_FRAMES, ids=["request", "response", "commit"])
    def test_golden_frames_are_pinned_byte_for_byte(self, frame, golden):
        # a change to these bytes is a wire-format change: make it on purpose
        assert encode_frame(frame) == golden
        (decoded,) = FrameDecoder().feed(golden)
        assert wire_text(decoded) == wire_text(frame)

    def test_batch_frame_is_pinned_byte_for_byte(self):
        batch, golden = GOLDEN_BATCH
        assert encode_frame(batch) == golden
        (decoded,) = FrameDecoder().feed(golden)
        assert type(decoded) is DataBatch
        assert [wire_text(f) for f in decoded.frames] == [wire_text(f) for f in batch.frames]
        assert decoded.raw == golden and batch.raw == b""

    @settings(max_examples=300, deadline=None)
    @given(batches)
    @example(DataBatch([]))
    @example(DataBatch([DataFrame("store0", "nf-0", _Wire("response", 3, True))]))
    def test_batch_roundtrip_keeps_values_order_and_bytes(self, batch):
        raw = encode_frame(batch)
        (back,) = FrameDecoder().feed(raw)
        assert type(back) is DataBatch and back.raw == raw
        # every envelope, its payload's type and fields, in send order
        assert [wire_text(f) for f in back.frames] == [wire_text(f) for f in batch.frames]
        # canonical bytes: what the store WAL keeps re-encodes to itself
        assert encode_frame(back) == raw
        # and the reference walk writes and reads the same layout
        assert json.dumps(encode_value(batch)) == wire_text(batch)
        assert wire_text(ref_decode_value(json.loads(raw[4:]))) == wire_text(batch)

    @pytest.mark.parametrize("case", sorted(MALFORMED_BATCHES))
    def test_malformed_batch_is_a_codec_error(self, case):
        (unbroken,) = decode_body(batch_body([0], [PRUNE_GROUP])).frames
        assert unbroken.payload.payload == PruneRequest((9,))
        raw = batch_body(*MALFORMED_BATCHES[case])
        with pytest.raises(CodecError):
            decode_body(raw)
        with pytest.raises(CodecError):
            FrameDecoder().feed(struct.pack(">I", len(raw)) + raw)

    def test_a_batch_carries_a_list_of_data_frames(self):
        frame = DataFrame("a", "b", 1)
        for batch in (DataBatch(5), DataBatch([1]), DataBatch((frame,)), DataBatch([frame, None])):
            with pytest.raises(CodecError):
                encode_frame(batch)
        for body in (b'{"__c__":"DataBatch","a":[[]]}', b'{"__c__":"DataBatch"}'):
            with pytest.raises(CodecError):
                decode_body(body)

    def test_unregistered_type_is_a_codec_error_not_pickled(self):
        class Sneaky:
            pass

        for body in (Sneaky(), [Sneaky()], (1, Sneaky()), {"k": Sneaky()}, PruneRequest(Sneaky())):
            with pytest.raises(CodecError):
                encode_value(body)
        with pytest.raises(CodecError):
            encode_frame(DataFrame("a", "b", Sneaky()))

    def test_unknown_class_tag_and_untagged_dict_rejected(self):
        for body in (
            {"__c__": "NoSuchMessage", "a": []},
            {"plain": 1},
            [1, {"__t__": [{"nested": "untagged"}]}],
        ):
            raw = json.dumps(body).encode()
            with pytest.raises(CodecError):
                decode_body(raw)
            with pytest.raises(CodecError):
                FrameDecoder().feed(struct.pack(">I", len(raw)) + raw)

    def test_nothing_but_one_json_value_in_a_body(self):
        with pytest.raises(CodecError):
            decode_body(b'{"__t__":[1]} {"__t__":[2]}')

    @pytest.mark.parametrize("case", sorted(MALFORMED_BODIES))
    def test_malformed_body_is_a_codec_error(self, case):
        body = MALFORMED_BODIES[case]
        with pytest.raises(CodecError):
            decode_body(body)
        with pytest.raises(CodecError):
            FrameDecoder().feed(framed(body))

    @settings(max_examples=500, deadline=None)
    @given(mutated_bodies())
    def test_a_mutated_body_decodes_or_is_a_codec_error(self, body):
        # flipped, cut, spliced or repeated bytes of real frames: the codec
        # is total, so nothing but a value or a CodecError comes out
        for decode in (decode_body, lambda raw: FrameDecoder().feed(framed(raw))):
            try:
                decode(body)
            except CodecError:
                pass


class TestFrameDecoder:
    def test_byte_at_a_time_reassembly(self):
        wire = encode_frame("hello") + encode_frame([1, 2])
        decoder = FrameDecoder()
        frames = []
        for i in range(len(wire)):
            frames.extend(decoder.feed(wire[i:i + 1]))
        assert frames == ["hello", [1, 2]]

    def test_many_frames_in_one_feed(self):
        wire = b"".join(encode_frame(i) for i in range(20))
        assert FrameDecoder().feed(wire) == list(range(20))

    def test_raw_bytes_of_each_batch_are_handed_back(self):
        sent = [
            encode_frame(DataBatch([DataFrame("a", "b", j) for j in range(i + 1)]))
            for i in range(5)
        ]
        wire = b"".join(sent)
        decoder = FrameDecoder()
        # split mid-frame: raw must still be the whole frame, prefix included
        got = decoder.feed(wire[:7]) + decoder.feed(wire[7:40]) + decoder.feed(wire[40:])
        assert [batch.raw for batch in got] == sent
        assert [[f.payload for f in batch.frames] for batch in got] == [
            list(range(i + 1)) for i in range(5)
        ]
        assert DataBatch([]).raw == b""  # built here, never on a wire

    def test_oversized_length_prefix_rejected(self):
        with pytest.raises(CodecError):
            FrameDecoder().feed(b"\xff\xff\xff\xff")

    def test_one_huge_feed_is_linear(self):
        # an offset walks the buffer; nothing is moved or re-copied per frame
        def per_frame_seconds(n):
            wire = b"".join(encode_frame(i) for i in range(n))
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                frames = FrameDecoder().feed(wire)
                best = min(best, time.perf_counter() - start)
            assert frames == list(range(n))
            return best / n

        small, large = per_frame_seconds(5_000), per_frame_seconds(100_000)
        assert large < 4 * small, (small, large)


# ---------------------------------------------------------------------------
# real TCP: Connection / Listener / Peer
# ---------------------------------------------------------------------------


def pump_until(conn, listener, peers, predicate, timeout_s=5.0):
    """Drive both ends of a real TCP pair until ``predicate()`` holds."""
    inbound_conn, inbound_peers = [], []
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        now = time.monotonic()
        inbound_conn.extend(conn.pump(now))
        peers.extend(listener.accept_ready(now))
        for peer in peers:
            inbound_peers.extend(peer.pump())
        if predicate():
            return inbound_conn, inbound_peers
        time.sleep(0.005)
    raise AssertionError("pump_until timed out")


class CuttingSocket:
    """A connected socket that writes through until ``budget`` bytes are
    out, takes only what is left of the budget from the write that crosses
    it, and fails every later write the way a reset connection does."""

    def __init__(self, sock, budget):
        self._sock = sock
        self.budget = budget
        self.writes = 0

    def sendmsg(self, buffers):
        if self.budget <= 0:
            raise ConnectionResetError(errno.ECONNRESET, "cut by the test")
        self.writes += 1
        data = b"".join(bytes(buffer) for buffer in buffers)[: self.budget]
        self.budget -= len(data)
        assert self._sock.send(data) == len(data)
        return len(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestRealTcp:
    def test_roundtrip_and_counters(self):
        listener = Listener()
        peers = []
        conn = Connection(
            "127.0.0.1",
            listener.port,
            seed=3,
            on_connect=lambda c: c.send_obj(ControlFrame({"type": "hello"})),
        )
        try:
            _, got = pump_until(
                conn, listener, peers, lambda: any(peers) and peers[0].counters.frames_received
            )
            assert got[0].body["type"] == "hello"
            peers[0].send_obj(DataFrame("store0", "nf-0", "pong"))
            got_c, _ = pump_until(
                conn, listener, peers, lambda: conn.counters.frames_received
            )
            assert got_c[0].payload == "pong"
            assert conn.counters.connects == 1
            assert conn.counters.resets == 0
        finally:
            conn.close()
            listener.close()

    def test_rst_then_reconnect_redelivers_queued_frames(self):
        listener = Listener()
        peers = []
        hellos = []
        conn = Connection(
            "127.0.0.1",
            listener.port,
            seed=5,
            on_connect=lambda c: hellos.append(1) or c.send_obj(
                ControlFrame({"type": "hello"})
            ),
        )
        try:
            _, got = pump_until(
                conn, listener, peers, lambda: peers and peers[0].counters.frames_received
            )
            assert conn.counters.frames_sent == 1  # the HELLO
            # four frames queue behind it and leave in ONE gathered write,
            # which the connection cuts in the middle of the second
            queued = [DataFrame("nf-0", "store0", f"q{i}") for i in range(4)]
            sizes = [len(encode_frame(frame)) for frame in queued]
            for frame in queued:
                conn.send_obj(frame)
            conn._sock = CuttingSocket(conn._sock, sizes[0] + sizes[1] // 2)
            conn.pump(time.monotonic())
            assert conn._sock.writes == 1
            assert conn.counters.frames_sent == 2  # whole frames only
            assert conn._tx_offset == sizes[1] // 2 and len(conn._txq) == 3
            # the next write hits a real ECONNRESET-style error: reconnect,
            # and everything from the cut frame on goes out again, whole
            _, more = pump_until(
                conn,
                listener,
                peers,
                lambda: len(peers) == 2 and peers[1].counters.frames_received >= 4,
                timeout_s=8.0,
            )
            got += more
            payloads = [f.payload for f in got if isinstance(f, DataFrame)]
            assert payloads == ["q0", "q1", "q2", "q3"]  # each exactly once, in order
            assert peers[0].counters.frames_received == 2  # HELLO, q0; half of q1 discarded
            assert conn.counters.resets == 1
            assert conn.counters.reconnects == 1
            assert conn.counters.frames_sent == 6
            assert conn.counters.bytes_sent > sum(sizes)  # the cut half went out twice
            assert len(hellos) == 2  # HELLO replayed after every (re)connect
        finally:
            conn.close()
            listener.close()

    def test_queued_frames_leave_in_one_write_per_pump(self):
        listener = Listener()
        peers = []
        conn = Connection("127.0.0.1", listener.port, seed=1)
        try:
            pump_until(conn, listener, peers, lambda: len(peers) == 1)
            spy = conn._sock = CuttingSocket(conn._sock, 1 << 30)
            for i in range(50):
                conn.send_obj(DataFrame("nf-0", "store0", i))
            _, got = pump_until(
                conn, listener, peers, lambda: peers[0].counters.frames_received == 50
            )
            assert spy.writes == 1
            assert conn.counters.frames_sent == 50  # logical frames, not syscalls
            assert [frame.payload for frame in got] == list(range(50))
            assert peers[0].counters.bytes_received == conn.counters.bytes_sent
            # and the same path serves the accepted side
            for i in range(50):
                peers[0].send_obj(DataFrame("store0", "nf-0", i))
            back, _ = pump_until(conn, listener, peers, lambda: conn.counters.frames_received == 50)
            assert [frame.payload for frame in back] == list(range(50))
            assert peers[0].counters.frames_sent == 50
        finally:
            conn.close()
            listener.close()

    def test_overflow_never_drops_a_half_written_head(self):
        conn = Connection("127.0.0.1", 1, max_queue=2)  # never connected
        for i in range(3):
            conn.send_obj(i)
        conn._tx_offset = 2  # part of the head frame is on the wire
        conn.send_obj(3)
        conn.send_obj(4)
        assert [decode_body(frame[4:]) for frame in conn._txq] == [1, 3, 4]
        assert conn.counters.tx_dropped == 2
        conn.close()

    def test_reconnect_backoff_is_capped_not_overflowed(self):
        conn = Connection("127.0.0.1", 1, seed=2)
        conn._attempt = 5000  # 1.6 ** 5000 overflows a float
        conn._schedule_retry(10.0)
        assert 10.0 + RECONNECT_CAP_S <= conn._next_attempt_real <= 10.0 + 1.25 * RECONNECT_CAP_S
        # the curve below the cap is untouched: 20 ms, then x1.6 a step
        conn._attempt = 0
        delays = []
        for _ in range(8):
            conn._schedule_retry(0.0)
            delays.append(conn._next_attempt_real)
        assert 0.02 <= delays[0] <= 0.025 and 0.032 <= delays[1] <= 0.04
        assert all(RECONNECT_CAP_S <= delay for delay in delays[6:])
        conn.close()

    def test_refuse_window_is_a_visible_partition(self):
        listener = Listener()
        listener.refuse_until_real = time.monotonic() + 0.15
        peers = []
        conn = Connection("127.0.0.1", listener.port, seed=9)
        try:
            pump_until(
                conn,
                listener,
                peers,
                lambda: listener.refused >= 1 and conn.counters.resets >= 1,
                timeout_s=5.0,
            )
            # after the window closes the client gets back in on its own
            pump_until(conn, listener, peers, lambda: len(peers) >= 1, timeout_s=8.0)
            assert conn.counters.reconnects >= 1
        finally:
            conn.close()
            listener.close()

    def test_send_queue_overflow_counts_drops(self):
        conn = Connection("127.0.0.1", 1, max_queue=2)  # never connected
        for i in range(5):
            conn.send_obj(i)
        assert conn.counters.tx_dropped == 3
        conn.close()


# ---------------------------------------------------------------------------
# the store node's frame WAL: the bytes received, replayable
# ---------------------------------------------------------------------------

KEY_A = "s0-entry\x1fhits\x1f10.0.0.1|52.0.0.1|1000|80|6"
KEY_B = "s0-entry\x1ftotal\x1f"


def wal_op(request_id, key, clock, **extra):
    request = OpRequest(key, "incr", (1,), "s0-entry-0", clock, vector_tag=65537, **extra)
    return DataFrame("s0-entry-0", "store0", _Wire("request", request_id, request))


def wal_prune(clock):
    return DataFrame("root0", "store0", _Wire("oneway", 0, PruneRequest((clock,))))


def wal_traffic():
    """(batch of envelopes, logged?) in send order: updates on two keys with
    an ownership claim, a retransmitted duplicate behind a read, a
    prune-only batch (not logged), and a write sharing a batch with an
    update. A batch is logged whole iff one of its envelopes mutates."""
    return [
        ([wal_op(1, KEY_A, 65537, claim_owner=True, return_state=True)], True),
        ([wal_op(2, KEY_B, 65537)], True),
        ([wal_op(3, KEY_A, 65538)], True),
        (
            [  # a read, then a retransmission: logged, the duplicate dedup-emulated
                DataFrame("s0-entry-0", "store0", _Wire("request", 4, ReadRequest(KEY_A))),
                wal_op(3, KEY_A, 65538),
            ],
            True,
        ),
        ([wal_prune(65530)], False),
        (
            [
                DataFrame(
                    "s0-entry-0", "store0", _Wire("request", 5, WriteRequest(KEY_B + "w", (1, "x")))
                ),
                wal_op(6, KEY_B, 65539),
            ],
            True,
        ),
    ]


@pytest.fixture
def store_nodes(tmp_path):
    """Factory of in-process StoreNodes over one WAL path (never dialling
    their control port), closed at teardown."""
    made = []

    def make(recover=False):
        node = StoreNode(
            {
                "wal_path": str(tmp_path / "store0.wal"),
                "control_host": "127.0.0.1",
                "control_port": 1,
                "recover": recover,
            }
        )
        made.append(node)
        return node

    yield make
    for node in made:
        node.listener.close()
        node.wal.close()
        node.control.close()


def serve(node, conn, until, timeout_s=5.0):
    """The store node's loop body, driven from the test."""
    replies = []
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        now = time.monotonic()
        replies += conn.pump(now)
        node.peers.extend(node.listener.accept_ready(now))
        node._pump_peers()
        node.sim.run()
        if until(replies):
            return replies
        time.sleep(0.002)
    raise AssertionError("serve timed out")


def answered(batches):
    """Request ids of the RPC responses among ``batches``."""
    return [
        f.payload.request_id
        for batch in batches
        for f in batch.frames
        if f.payload.kind == "response"
    ]


def store_state(node):
    store = node.store
    return (
        dict(store._data),
        dict(store._owners),
        dict(store._update_log),
        {clock: list(keys) for clock, keys in store._log_clocks.items()},
    )


class TestFrameWal:
    def run_traffic(self, node):
        conn = Connection("127.0.0.1", node.listener.port, seed=4)
        sent = []
        try:
            conn.send_obj(ControlFrame({"type": "hello", "names": ["s0-entry-0"]}))
            for index, (frames, logged) in enumerate(wal_traffic()):
                raw = encode_frame(DataBatch(frames))
                if index == 1:
                    # the same batch from a sender with another JSON style:
                    # it decodes alike, and a re-encoding would not match it
                    body = json.dumps(json.loads(raw[4:])).encode()
                    raw = struct.pack(">I", len(body)) + body
                    assert raw != encode_frame(DataBatch(frames))
                conn._txq.append(raw)
                if logged:
                    sent.append(raw)
            replies = serve(node, conn, lambda got: len(answered(got)) == 7)
        finally:
            conn.close()
        return sent, sorted(answered(replies))

    def test_wal_holds_the_bytes_the_peer_sent(self, store_nodes):
        node = store_nodes()
        sent, replies = self.run_traffic(node)
        with open(node.wal.path, "rb") as fh:
            assert fh.read() == b"".join(sent)
        assert node.wal.appended == len(sent) == 5
        # and it served them: every request answered, the duplicate emulated
        assert replies == [1, 2, 3, 3, 4, 5, 6]
        assert node.bridge_rx == sum(len(frames) for frames, _ in wal_traffic()) == 8
        assert node.store.stats.ops_emulated == 1
        assert node.store.peek(KEY_A) == 2 and node.store.peek(KEY_B) == 2

    def test_recover_rebuilds_the_same_store(self, store_nodes):
        node = store_nodes()
        sent, _ = self.run_traffic(node)
        live = store_state(node)
        assert live[0][KEY_A] == 2 and live[1][KEY_A] == "s0-entry-0" and live[3]

        respawn = store_nodes(recover=True)
        assert respawn.recover() == len(sent)
        # data, owners and the dedup log come back exactly as they were
        assert store_state(respawn) == live
        assert respawn.store.stats.ops_emulated == 1  # the duplicate, deduped again
        assert not respawn.store.endpoint.mute_output

        # a WAL of re-encoded batches replays to that same state
        reencoded = [encode_frame(DataBatch(frames)) for frames, logged in wal_traffic() if logged]
        with open(respawn.wal.path, "wb") as fh:
            fh.write(b"".join(reencoded))
        again = store_nodes(recover=True)
        again.recover()
        assert store_state(again) == live

    def test_torn_tail_is_skipped(self, store_nodes):
        node = store_nodes()
        sent, _ = self.run_traffic(node)
        node.wal.close()
        with open(node.wal.path, "r+b") as fh:
            fh.truncate(len(b"".join(sent)) - 9)  # SIGKILL mid-append
        frames = FrameWAL.read_frames(node.wal.path)
        assert [frame.raw for frame in frames] == sent[:-1]
        respawn = store_nodes(recover=True)
        assert respawn.recover() == len(sent) - 1
        # the torn batch is skipped whole: neither its write nor its op applied
        assert respawn.store.peek(KEY_B) == 1
        assert KEY_B + "w" not in respawn.store._data

    def test_logged_prune_is_not_replayed(self, store_nodes):
        # known answer: a logged batch [OpRequest, PruneRequest] of the same
        # clock replays the op and not the prune, so the dedup entry the
        # prune reclaimed live is still there after recovery
        node = store_nodes()
        batch = encode_frame(DataBatch([wal_op(1, KEY_A, 65537), wal_prune(65537)]))
        node.wal.append(batch)
        node.wal.close()
        respawn = store_nodes(recover=True)
        assert respawn.recover() == 1
        assert respawn.store.peek(KEY_A) == 1
        assert 65537 in respawn.store._log_clocks


class TestABadFrameCostsAConnection:
    """A peer that sends a body the codec refuses loses its connection; the
    process that read it goes on serving everyone else."""

    def test_store_node_drops_the_peer_and_serves_the_rest(self, store_nodes):
        node = store_nodes()
        bad = Connection("127.0.0.1", node.listener.port, seed=2)
        good = Connection("127.0.0.1", node.listener.port, seed=3)
        try:
            # the two probe bodies that used to end the store node process
            bad._txq.append(framed(MALFORMED_BODIES["class without fields"]))
            bad._txq.append(framed(MALFORMED_BODIES["too many fields"]))
            serve(node, bad, lambda _: bool(node.peers) and not node.peers[0].alive)
            bad_peer = node.peers[0]
            assert bad_peer.counters.codec_errors == 1
            assert bad_peer.counters.resets == 0
            good.send_obj(ControlFrame({"type": "hello", "names": ["s0-entry-0"]}))
            request = _Wire("request", 9, ReadRequest(KEY_A))
            good.send_obj(DataBatch([DataFrame("s0-entry-0", "store0", request)]))
            replies = serve(node, good, lambda got: answered(got) == [9])
            assert answered(replies) == [9]
            assert [peer.counters.codec_errors for peer in node.peers] == [1, 0]
        finally:
            bad.close()
            good.close()

    def test_a_reaped_peer_keeps_its_counters_in_the_totals(self, store_nodes):
        node = store_nodes()
        bad = Connection("127.0.0.1", node.listener.port, seed=2)
        try:
            bad._txq.append(framed(MALFORMED_BODIES["class without fields"]))
            serve(node, bad, lambda _: bool(node.peers) and not node.peers[0].alive)
            assert node._counters()["peer_totals"]["codec_errors"] == 1
            node._reap_peers()  # what every turn of StoreNode.run does
            assert node.peers == []
            assert node._counters()["peer_totals"]["codec_errors"] == 1
        finally:
            bad.close()

    def test_connection_redials_with_a_fresh_decoder(self):
        listener = Listener()
        peers = []
        conn = Connection("127.0.0.1", listener.port, seed=6)
        try:
            pump_until(conn, listener, peers, lambda: len(peers) == 1)
            peers[0]._txq.append(framed(MALFORMED_BODIES["class without fields"]))
            pump_until(conn, listener, peers, lambda: conn.counters.codec_errors == 1)
            assert not conn.alive and conn.counters.resets == 0
            pump_until(conn, listener, peers, lambda: conn.counters.connects == 2)
            assert conn.counters.codec_errors == 1 and len(peers) == 2
            # the new connection carries frames both ways again
            peers[1].send_obj(DataFrame("store0", "nf-0", "after"))
            got, _ = pump_until(conn, listener, peers, lambda: conn.counters.frames_received)
            assert [frame.payload for frame in got] == ["after"]
        finally:
            conn.close()
            listener.close()


# ---------------------------------------------------------------------------
# engine semantics over a real socketpair (no fabric)
# ---------------------------------------------------------------------------


class SocketpairBridge:
    """The shard bridge pattern at socketpair scale: a client-side engine
    and a real :class:`DatastoreInstance` in separate Network objects,
    every envelope between them crossing a real (AF_UNIX) socket as a
    codec frame. Loss is scripted per direction; a closed peer surfaces
    as real OSErrors on send and EOF on read, like any torn socket."""

    def __init__(self, sim, seed=7):
        self.sock_client, self.sock_store = make_socketpair()
        self.sock_client.setblocking(False)
        self.sock_store.setblocking(False)
        self.net_client = Network(sim, Link(latency_us=14.0), seed=seed)
        self.net_store = Network(sim, Link(latency_us=14.0), seed=seed ^ 1)
        self.store = DatastoreInstance(sim, self.net_store, "store0", n_threads=4)
        self.drop_requests = 0  # swallow next N client->store frames
        self.drop_replies = 0  # swallow next N store->client frames
        self.tx_errors = 0  # real socket errors on send (peer closed)
        self._decoder_to_store = FrameDecoder()
        self._decoder_to_client = FrameDecoder()
        self.net_client.default_route = self._client_out
        self.net_store.default_route = self._store_out

    def _client_out(self, envelope):
        if envelope.dst != "store0":
            return False
        if self.drop_requests > 0:
            self.drop_requests -= 1
            return True  # lost on the wire
        self._send(self.sock_client, envelope)
        return True

    def _store_out(self, envelope):
        if self.drop_replies > 0:
            self.drop_replies -= 1
            return True
        self._send(self.sock_store, envelope)
        return True

    def _send(self, sock, envelope):
        frame = encode_frame(
            DataFrame(envelope.src, envelope.dst, envelope.payload)
        )
        try:
            sock.sendall(frame)
        except OSError:
            self.tx_errors += 1

    def pump(self):
        moved = 0
        for sock, decoder, net in (
            (self.sock_store, self._decoder_to_store, self.net_store),
            (self.sock_client, self._decoder_to_client, self.net_client),
        ):
            while True:
                try:
                    data = sock.recv(65536)
                except OSError:
                    break
                if not data:
                    break
                for frame in decoder.feed(data):
                    if isinstance(frame, DataFrame):
                        net.send(frame.src, frame.dst, frame.payload)
                        moved += 1
        return moved

    def close(self):
        for sock in (self.sock_client, self.sock_store):
            try:
                sock.close()
            except OSError:
                pass


def run_bridged(sim, bridge, until, step=50.0):
    """Advance virtual time in slices, moving socket frames between them."""
    idle = 0
    while sim.now < until and idle < 4:
        before = sim.now
        sim.run(until=min(before + step, until))
        moved = bridge.pump()
        idle = idle + 1 if (sim.now == before and not moved) else 0


@pytest.fixture
def bridge(sim):
    b = SocketpairBridge(sim)
    yield b
    b.close()


@pytest.fixture
def wire_client(sim, bridge):
    cluster = StoreCluster([RemoteStoreHandle("store0")])
    return StoreClient(
        sim,
        bridge.net_client,
        cluster,
        vertex_id="nf",
        instance_id="nf-0",
        specs=default_specs(),
        wait_for_acks=False,
        retransmit_timeout_us=200.0,
    )


class TestEngineOverRealSockets:
    def test_flush_survives_request_loss(self, sim, bridge, wire_client):
        bridge.drop_requests = 2  # first send + first retransmission vanish
        wire_client.begin_packet(make_packet(clock=11))

        def body():
            yield from wire_client.update("counter", None, "incr", 1)

        sim.process(body())
        run_bridged(sim, bridge, until=60_000)
        key = wire_client._key("counter", None)
        assert bridge.store.peek(key) == 1  # applied exactly once
        assert wire_client.stats.retransmissions >= 2
        assert wire_client.stats.flushes_gave_up == 0
        assert not wire_client._pending_acks

    def test_ack_loss_dedups_at_store(self, sim, bridge, wire_client):
        # the store applies the op but its ACK is lost: the retransmitted
        # copy must be emulated from the dedup log, never re-applied
        bridge.drop_replies = 1
        wire_client.begin_packet(make_packet(clock=12))

        def body():
            yield from wire_client.update("counter", None, "incr", 1)

        sim.process(body())
        run_bridged(sim, bridge, until=60_000)
        key = wire_client._key("counter", None)
        assert bridge.store.peek(key) == 1
        assert bridge.store.stats.ops_emulated >= 1
        assert wire_client.stats.retransmissions >= 1
        assert not wire_client._pending_acks

    def test_blocking_read_gives_up_when_peer_is_gone(self, sim, bridge, wire_client):
        # abrupt close of the store-side socket: sends fail with a real
        # OSError (EPIPE/ECONNRESET), no replies ever arrive, and the
        # bounded retry budget converts the black hole into RpcGaveUp
        bridge.sock_store.close()
        outcome = {}

        def body():
            try:
                outcome["value"] = yield from wire_client.read("flow_state", FLOW)
            except RpcGaveUp as exc:
                outcome["gaveup"] = exc

        sim.process(body())
        run_bridged(sim, bridge, until=2_000_000)
        assert "gaveup" in outcome
        assert bridge.net_client.rpc_gaveups == 1
        assert bridge.tx_errors >= 1
