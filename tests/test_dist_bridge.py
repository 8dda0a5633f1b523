"""A bridge turn crosses as one unit (DESIGN.md §13.1 and §5).

Two halves: the turn outbox folds consecutive one-way N-entry messages of
one (src, dst) into one (:class:`repro.dist.transport.Outbox`), and an
inbound batch re-enters the engine as one event per run of equal delay
(:meth:`repro.simnet.network.Network.send_batch`) with the delivery trace
N ``Network.send`` calls would have left.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import make_clock
from repro.dist.transport import (
    Connection,
    ControlFrame,
    DataBatch,
    DataFrame,
    Outbox,
    decode_body,
    encode_frame,
)
from repro.simnet.engine import Simulator
from repro.simnet.network import Link, Network
from repro.simnet.rpc import _Wire
from repro.store.keys import root_clock_key
from repro.store.protocol import (
    CommitSignal,
    DeleteRequest,
    OpRequest,
    OpResult,
    PruneRequest,
    SnapshotRequest,
)
from tests.test_dist_transport import answered, serve, store_nodes  # noqa: F401

# ---------------------------------------------------------------------------
# (a) the turn outbox
# ---------------------------------------------------------------------------


def signal(clock, tag=7):
    return _Wire("oneway", 0, CommitSignal((clock,), (tag,)))


def ack(request_id):
    return _Wire("response", request_id, OpResult(value=None))


def view(frame):
    """An envelope as comparable plain data."""
    wire = frame.payload
    return (frame.src, frame.dst, wire.kind, wire.request_id, wire.ok, wire.payload)


def one_entry_each(views):
    """Every foldable one-way message split into its one-entry messages."""
    out = []
    for src, dst, kind, request_id, ok, message in views:
        if kind == "oneway" and type(message) in (CommitSignal, DeleteRequest, PruneRequest):
            columns = [getattr(message, name) for name in message.__dataclass_fields__]
            for entry in zip(*columns):
                out.append((src, dst, kind, request_id, ok, type(message)(*((v,) for v in entry))))
        else:
            out.append((src, dst, kind, request_id, ok, message))
    return out


def per_pair(views):
    pairs = {}
    for item in views:
        pairs.setdefault(item[:2], []).append(item)
    return pairs


class TestOutbox:
    def test_signals_of_one_root_fold_in_order_around_other_traffic(self):
        outbox = Outbox()
        sent = [
            ("store0", "s0-entry-0", ack(1)),
            ("store0", "root0", signal(11, 1)),
            ("store0", "s0-entry-0", ack(2)),
            ("store0", "root0", signal(12, 2)),
            ("store0", "s0-exit-0", ack(3)),
            ("store0", "root0", signal(13, 3)),
        ]
        folded = [outbox.add(*envelope) for envelope in sent]
        assert folded == [False, False, False, True, False, True]
        frames = outbox.take()
        assert [view(f)[1] for f in frames] == ["s0-entry-0", "root0", "s0-entry-0", "s0-exit-0"]
        assert frames[1].payload.payload == CommitSignal((11, 12, 13), (1, 2, 3))
        # the folded envelope sits where its first entry was queued
        assert [f.payload.request_id for f in frames if f.payload.kind == "response"] == [1, 2, 3]
        assert not outbox and outbox.take() == []

    def test_a_response_to_the_same_root_splits_the_run(self):
        # the root's clock-persist write is an RPC: its response to root0
        # must reach root0 between the signals queued before and after it
        outbox = Outbox()
        outbox.add("store0", "root0", signal(11))
        outbox.add("store0", "root0", signal(12))
        outbox.add("store0", "root0", ack(40))
        outbox.add("store0", "root0", signal(13))
        outbox.add("store0", "root0", signal(14))
        frames = outbox.take()
        assert [(f.payload.kind, f.payload.payload) for f in frames] == [
            ("oneway", CommitSignal((11, 12), (7, 7))),
            ("response", OpResult(value=None)),
            ("oneway", CommitSignal((13, 14), (7, 7))),
        ]

    def test_requests_responses_other_classes_and_other_pairs_never_fold(self):
        outbox = Outbox()
        prune = PruneRequest((5,))
        never = [
            ("root0", "store0", _Wire("request", 1, prune)),
            ("root0", "store0", _Wire("request", 2, prune)),
            ("store0", "root0", _Wire("response", 3, CommitSignal((1,), (1,)))),
            ("store0", "root0", _Wire("response", 4, CommitSignal((2,), (1,)))),
            ("root0", "store0", _Wire("oneway", 0, SnapshotRequest())),
            ("root0", "store0", _Wire("oneway", 0, SnapshotRequest())),
            ("root0", "store0", _Wire("oneway", 0, prune)),
            ("root0", "store0", _Wire("oneway", 0, DeleteRequest((5,), (1,), (0,)))),
            ("root1", "store0", _Wire("oneway", 0, PruneRequest((6,)))),
            ("root0", "store1", _Wire("oneway", 0, PruneRequest((7,)))),
        ]
        assert not any(outbox.add(*envelope) for envelope in never)
        assert [view(f) for f in outbox.take()] == [
            (src, dst, w.kind, w.request_id, w.ok, w.payload) for src, dst, w in never
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([("store0", "root0"), ("store0", "root1"), ("store0", "e-0")]),
                st.sampled_from(["signal", "prune", "delete", "request", "response", "other"]),
                st.integers(1, 3),
                st.integers(1, 1 << 20),
            ),
            max_size=30,
        )
    )
    def test_folding_is_n_one_entry_messages_per_pair(self, script):
        outbox = Outbox()
        sent = []
        for request_id, ((src, dst), kind, width, base) in enumerate(script, start=1):
            clocks = tuple(range(base, base + width))
            wire = {
                "signal": lambda: _Wire("oneway", 0, CommitSignal(clocks, clocks)),
                "prune": lambda: _Wire("oneway", 0, PruneRequest(clocks)),
                "delete": lambda: _Wire("oneway", 0, DeleteRequest(clocks, clocks, clocks)),
                "request": lambda: _Wire("request", request_id, PruneRequest(clocks)),
                "response": lambda: _Wire("response", request_id, CommitSignal(clocks, clocks)),
                "other": lambda: _Wire("oneway", 0, SnapshotRequest(str(base))),
            }[kind]()
            sent.append((src, dst, wire.kind, wire.request_id, wire.ok, wire.payload))
            outbox.add(src, dst, wire)
        frames = outbox.take()
        got = [view(frame) for frame in frames]
        # per (src, dst): the same one-entry messages in the same order
        assert per_pair(one_entry_each(got)) == per_pair(one_entry_each(sent))
        # folding is maximal: no two foldable one-ways of one class in a row
        for run in per_pair(got).values():
            for before, after in zip(run, run[1:]):
                assert not (
                    before[2] == after[2] == "oneway"
                    and type(before[5]) is type(after[5])
                    and type(before[5]) is not SnapshotRequest
                )
        # and the batch crosses the codec unchanged
        decoded = decode_body(encode_frame(DataBatch(frames))[4:])
        assert [view(frame) for frame in decoded.frames] == got


class TestTheStoreNodeFolds:
    def interleaved(self, persist_between=False):
        """Updates of root0's and root1's packets, alternating, from one
        peer; optionally root0's clock-persist write in the middle."""
        frames = []
        for seq in (1, 2, 3):
            for root in (0, 1):
                op = OpRequest(
                    f"s{root}-entry\x1fhits\x1f",
                    "incr",
                    (1,),
                    f"s{root}-entry-0",
                    make_clock(root, seq),
                    vector_tag=65537 + root,
                )
                wire = _Wire("request", 10 * seq + root, op)
                frames.append(DataFrame(f"s{root}-entry-0", "store0", wire))
            if persist_between and seq == 2:
                persist = OpRequest(root_clock_key(0), "set", (2,), "root0", log_update=False)
                frames.append(DataFrame("root0", "store0", _Wire("request", 99, persist)))
        return frames

    def run_turn(self, node, frames):
        conn = Connection("127.0.0.1", node.listener.port, seed=5)
        try:
            names = ["s0-entry-0", "s1-entry-0", "root0", "root1"]
            conn.send_obj(ControlFrame({"type": "hello", "names": names}))
            conn.send_obj(DataBatch(frames))
            replies = serve(node, conn, lambda got: len(answered(got)) == len(frames))
        finally:
            conn.close()
        return [
            (frame.dst, frame.payload.kind, frame.payload.payload)
            for batch in replies
            for frame in batch.frames
            if frame.dst.startswith("root")
        ]

    def test_one_commit_signal_per_root_per_turn(self, store_nodes):  # noqa: F811
        node = store_nodes()
        signals = self.run_turn(node, self.interleaved())
        root0 = tuple(make_clock(0, seq) for seq in (1, 2, 3))
        root1 = tuple(make_clock(1, seq) for seq in (1, 2, 3))
        assert sorted(signals, key=repr) == [
            ("root0", "oneway", CommitSignal(root0, (65537,) * 3)),
            ("root1", "oneway", CommitSignal(root1, (65538,) * 3)),
        ]
        assert node._counters()["folded"] == {"root0": 2, "root1": 2}

    def test_the_clock_persist_response_splits_root0s_run(self, store_nodes):  # noqa: F811
        node = store_nodes()
        to_root = self.run_turn(node, self.interleaved(persist_between=True))
        root0 = [(kind, message) for dst, kind, message in to_root if dst == "root0"]
        root1 = [(kind, message) for dst, kind, message in to_root if dst == "root1"]
        # where the store's threads serve the write among the updates is
        # theirs to choose; that it parts root0's signals is not
        assert [kind for kind, _ in root0] == ["oneway", "response", "oneway"]
        clocks = root0[0][1].clocks + root0[2][1].clocks
        assert clocks == tuple(make_clock(0, seq) for seq in (1, 2, 3))
        root1_clocks = tuple(make_clock(1, seq) for seq in (1, 2, 3))
        assert root1 == [("oneway", CommitSignal(root1_clocks, (65538,) * 3))]
        assert node._counters()["folded"] == {"root0": 1, "root1": 2}


# ---------------------------------------------------------------------------
# (b) one engine event per inbound batch
# ---------------------------------------------------------------------------


SOURCES = ("a", "b")
SINKS = ("x", "y", "z", "down", "gone")


@st.composite
def fabrics(draw):
    """A network set-up and one batch sent inside it."""
    links = {
        (src, dst): (
            draw(st.sampled_from([0.0, 1.0, 2.0, 14.0])),
            draw(st.sampled_from([0.0, 0.0, 5.0])),
            draw(st.sampled_from([0.0, 0.0, 0.4])),
        )
        for src in SOURCES
        for dst in SINKS
        if draw(st.booleans())
    }
    default = draw(st.sampled_from([(2.0, 0.0, 0.0), (14.0, 0.0, 0.0), (2.0, 3.0, 0.2)]))
    partition = draw(st.sampled_from([None, [["a", "x"], ["b", "y"]], [["a"], ["z", "down"]]]))
    degradation = draw(
        st.none()
        | st.fixed_dictionaries(
            {
                "src": st.sampled_from([None, "a", "b"]),
                "dst": st.sampled_from([None, "x", "y"]),
                "loss": st.sampled_from([0.0, 0.5]),
                "jitter_us": st.sampled_from([0.0, 4.0]),
                "extra_latency_us": st.sampled_from([0.0, 1.0]),
                "start": st.sampled_from([0.0, 5.0, 10.0]),
                "duration_us": st.sampled_from([None, 3.0, 20.0]),
            }
        )
    )
    batch = draw(
        st.lists(st.tuples(st.sampled_from(SOURCES), st.sampled_from(SINKS)), max_size=25)
    )
    send_at = draw(st.sampled_from([0.0, 7.5]))
    seed = draw(st.integers(0, 2**16))
    return links, default, partition, degradation, batch, send_at, seed


def delivery_trace(fabric, batched):
    """Everything observable of sending ``batch`` at ``send_at``: each
    delivery (instant, envelope), the microtask and timer each delivery
    spawns, other events due at the same instants, the drop causes, and
    the rng state after."""
    links, default, partition, degradation, batch, send_at, seed = fabric
    sim = Simulator()
    network = Network(sim, Link(*default), seed=seed)
    for (src, dst), link in links.items():
        network.connect(src, dst, Link(*link), bidirectional=False)
    if partition is not None:
        network.partition(partition)
    if degradation is not None:
        network.degrade(**degradation)
    trace = []

    def receive(envelope):
        trace.append(("deliver", sim.now, envelope.src, envelope.dst, envelope.payload, envelope.sent_at))
        sim.call_soon(trace.append, ("micro", sim.now, envelope.payload))
        sim.schedule(0.5, trace.append, ("timer", sim.now, envelope.payload))

    for name in ("x", "y", "z", "down"):
        network.register_callback(name, receive)
    network.set_down("down")
    dues = sorted({link[0] for link in links.values()} | {default[0]})

    def send():
        for delay in dues:  # other work due when the batch lands, queued first ...
            sim.schedule(delay, trace.append, ("before", sim.now + delay))
        messages = [DataFrame(src, dst, index) for index, (src, dst) in enumerate(batch)]
        if batched:
            network.send_batch(messages)
        else:
            for message in messages:
                network.send(message.src, message.dst, message.payload)
        for delay in dues:  # ... and queued after
            sim.schedule(delay, trace.append, ("after", sim.now + delay))
        sim.call_soon(trace.append, ("sender's microtask", sim.now))

    if send_at:
        sim.schedule(send_at, send)
    else:
        send()
    sim.run()
    return trace, dict(network.drops), network.delivered, network.rng.getstate(), sim.now


@settings(max_examples=300, deadline=None)
@given(fabrics())
def test_batch_reinjection_leaves_the_trace_of_n_sends(fabric):
    assert delivery_trace(fabric, batched=True) == delivery_trace(fabric, batched=False)


def test_one_event_per_run_of_equal_delay():
    sim = Simulator()
    network = Network(sim, Link(latency_us=2.0), seed=1)
    network.connect("s", "slow", Link(latency_us=5.0), bidirectional=False)
    got = []
    for name in ("fast", "slow"):
        network.register_callback(name, lambda envelope: got.append(envelope.payload))
    dsts = ["fast", "fast", "slow", "slow", "fast", "fast", "fast"]
    network.send_batch([DataFrame("s", dst, index) for index, dst in enumerate(dsts)])
    sim.run()
    assert got == [0, 1, 4, 5, 6, 2, 3]
    assert sim.events_processed == 3  # three runs: fast, slow, fast
