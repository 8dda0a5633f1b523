"""Direct-drive loops: one layer's public function timed in isolation.

These are the "(direct)" per-layer metrics. Each loop calls straight into a
layer with nothing else running, repeats a fixed amount of work a few times
and reports the median, so a later PR can tell "the layer itself got
faster" from "the workload asks less of it". They run in the traced run
only and never feed an end-to-end number.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List

from repro.dist.transport import Connection, FrameDecoder, Listener, encode_frame
from repro.simnet.engine import Channel, Event, Simulator
from repro.simnet.network import Network
from repro.store.datastore import DatastoreInstance
from repro.store.keys import StateKey
from repro.store.operations import default_registry
from repro.store.protocol import OpRequest

REPEATS = 5


def _median_seconds(body: Callable[[], Any]) -> float:
    """Median wall seconds of ``body()`` over REPEATS calls."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        body()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _timer_storm(background: int, timers: int, iters: int, fanout: int):
    """The ``timer_storm`` shape of bench_engine_micro on the current
    engine: zero-delay delivery fan-outs racing a heap full of armed
    timers. Returns the simulator, ready to run."""
    sim = Simulator()
    for index in range(background):
        sim.schedule(10_000.0 + index * 0.01, _noop)
    budget = [timers * (iters - 1)]

    def deliver(_event) -> None:
        sim.schedule(0.0, _noop)

    def make_timer(delay: float):
        def fire() -> None:
            if budget[0] > 0:
                budget[0] -= 1
                event = Event(sim, name="fan")
                for _ in range(fanout):
                    event.add_callback(deliver)
                sim.schedule(0.0, event.succeed, None)
                sim.schedule(delay, fire)

        return fire

    for index in range(timers):
        delay = 1.0 + (index % 7) * 0.5
        sim.schedule(delay, make_timer(delay))
    return sim


def _noop() -> None:
    return None


def timer_events_per_s(quick: bool) -> float:
    background, timers, iters = (4_000, 60, 20) if quick else (40_000, 400, 60)
    rates = []
    for _ in range(REPEATS):
        sim = _timer_storm(background, timers, iters, fanout=8)
        before = sim.events_processed
        start = time.perf_counter()
        sim.run(until=9_999.0)  # stop before the background fleet fires
        wall = time.perf_counter() - start
        rates.append((sim.events_processed - before) / wall)
    return statistics.median(rates)


def channel_items_per_s(quick: bool) -> float:
    """The ``channel_churn`` shape: deep bursty FIFO traffic drained in
    batches by one consumer (the receive-loop idiom of the instances)."""
    bursts, burst = (4, 1024) if quick else (14, 8192)
    rates = []
    for _ in range(REPEATS):
        sim = Simulator()
        channel = Channel(sim, name="churn")
        consumed = [0]

        def producer():
            for _ in range(bursts):
                for item in range(burst):
                    channel.put(item)
                yield sim.timeout(10.0)

        def consumer():
            while True:
                yield channel.get()
                consumed[0] += 1
                while channel.try_get() is not None:
                    consumed[0] += 1

        sim.process(producer())
        sim.process(consumer())
        start = time.perf_counter()
        sim.run(until=bursts * 10.0 + 1.0)
        rates.append(consumed[0] / (time.perf_counter() - start))
    return statistics.median(rates)


def datastore_ops_per_s(quick: bool) -> float:
    """``DatastoreInstance.apply_operation`` on clock-logged increments of
    per-flow keys: ownership claim, dedup log, TS update, apply."""
    n_ops = 2_000 if quick else 20_000
    sim = Simulator()
    store = DatastoreInstance(sim, Network(sim), "store0")
    requests = [
        OpRequest(
            key=StateKey("nat", "hits", (f"10.0.0.{index % 251}", index % 64)).storage_key(),
            op="incr",
            args=(1,),
            instance="nat-0",
            clock=index + 1,
            claim_owner=True,
        )
        for index in range(n_ops * REPEATS)
    ]
    batches = iter(range(0, len(requests), n_ops))

    def body() -> None:
        start = next(batches)
        for request in requests[start:start + n_ops]:
            store.apply_operation(request)

    return n_ops / _median_seconds(body)


def key_build_ns(quick: bool) -> float:
    n_keys = 20_000 if quick else 200_000
    flow_key = ("10.0.0.1", "52.0.0.1", 5000, 80, 6)

    def body() -> None:
        for _ in range(n_keys):
            StateKey("nat", "port_map", flow_key).storage_key()

    return _median_seconds(body) / n_keys * 1e9


def operation_apply_ns(quick: bool) -> float:
    """``OperationRegistry.apply`` over the Table-2 mix the four NFs use."""
    n_ops = 20_000 if quick else 200_000
    registry = default_registry()
    mix = (("incr", 1, (1,)), ("set", 1, (2,)), ("get", 1, ()), ("compare_and_update", 1, (1, 2)))

    def body() -> None:
        apply = registry.apply
        for index in range(n_ops):
            name, value, args = mix[index & 3]
            apply(name, value, args)

    return _median_seconds(body) / n_ops * 1e9


def sim_layer_metrics(quick: bool) -> Dict[str, float]:
    """Every direct-drive metric of the simulator's layers."""
    return {
        "simnet.engine.timer_events_per_s": timer_events_per_s(quick),
        "simnet.engine.channel_items_per_s": channel_items_per_s(quick),
        "store.datastore.direct_ops_per_s": datastore_ops_per_s(quick),
        "store.keys.build_ns_per_key": key_build_ns(quick),
        "store.operations.apply_ns_per_op": operation_apply_ns(quick),
    }


def codec_metrics(wal_bytes: bytes, frame_limit: int) -> Dict[str, float]:
    """``encode_frame`` / ``FrameDecoder`` / ``Connection`` -> ``Listener``
    over frames a real dist_1shard run put on the wire (its store WAL: the
    shard -> store requests; replies are not captured)."""
    frames: List[Any] = FrameDecoder().feed(wal_bytes)[:frame_limit]
    if not frames:
        raise RuntimeError("the fabric run left no frames in its store WAL")
    encoded = [encode_frame(frame) for frame in frames]
    stream = b"".join(encoded)

    def encode() -> None:
        for frame in frames:
            encode_frame(frame)

    def decode() -> None:
        FrameDecoder().feed(stream)

    return {
        "dist.transport.encode_us_per_frame": _median_seconds(encode) / len(frames) * 1e6,
        "dist.transport.decode_us_per_frame": _median_seconds(decode) / len(frames) * 1e6,
        "dist.transport.loopback_frames_per_s": _loopback_frames_per_s(frames),
    }


def _loopback_frames_per_s(frames: List[Any]) -> float:
    """One process, one real loopback TCP socket: a ``Connection`` sends the
    corpus to a ``Listener`` peer, both pumped from this loop."""
    listener = Listener(port=0)
    connection = Connection("127.0.0.1", listener.port, label="perf-loopback")
    peers: list = []
    try:
        deadline = time.perf_counter() + 30.0
        rates = []
        for _ in range(REPEATS):
            received = 0
            start = time.perf_counter()
            for frame in frames:
                connection.send_obj(frame)
            while received < len(frames):
                now = time.perf_counter()
                if now > deadline:
                    raise RuntimeError("loopback transfer did not complete in 30 s")
                connection.pump(now)
                peers.extend(listener.accept_ready(now))
                for peer in peers:
                    received += len(peer.pump())
            rates.append(len(frames) / (time.perf_counter() - start))
        return statistics.median(rates)
    finally:
        connection.close()
        for peer in peers:
            peer.close()
        listener.close()
