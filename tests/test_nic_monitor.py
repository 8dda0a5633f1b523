"""Unit tests for the NIC model and the measurement helpers."""

import math
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.runtime import sanitized
from repro.simnet.engine import Channel, Simulator
from repro.simnet.monitor import LatencyRecorder, ThroughputMeter, percentile, percentiles
from repro.simnet.nic import Nic
from tests.reference_nic import DrainNic


class TestNic:
    def test_serialisation_delay(self, sim):
        received = []
        nic = Nic(sim, rate_gbps=10.0, deliver=lambda p: received.append((sim.now, p)))
        nic.send("pkt", size_bits=10_000)  # 10000 bits at 10Gbps = 1µs
        sim.run()
        assert received == [(pytest.approx(1.0), "pkt")]

    def test_back_to_back_packets_serialise(self, sim):
        received = []
        nic = Nic(sim, rate_gbps=1.0, deliver=lambda p: received.append(sim.now))
        for _ in range(3):
            nic.send("p", size_bits=1_000)  # 1µs each at 1Gbps
        sim.run()
        assert received == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_overhead_bits_reduce_goodput(self, sim):
        received = []
        nic = Nic(
            sim,
            rate_gbps=10.0,
            deliver=lambda p: received.append(sim.now),
            per_packet_overhead_bits=10_000,
        )
        nic.send("p", size_bits=10_000)
        sim.run()
        assert received == [pytest.approx(2.0)]
        assert nic.tx_bits == 10_000  # goodput counts payload only

    def test_queue_limit_tail_drop(self, sim):
        nic = Nic(sim, rate_gbps=0.001, deliver=lambda p: None, queue_limit=2)
        results = [nic.send("p", 1000) for _ in range(5)]
        assert results.count(False) >= 2
        assert nic.drops >= 2

    def test_failed_nic_stops_delivering(self, sim):
        received = []
        nic = Nic(sim, rate_gbps=10.0, deliver=received.append)
        nic.send("p", 1000)
        nic.fail()
        sim.run()
        assert received == []


# ----------------------------------------------------------------------
# the callback-driven FIFO server against the generator process it replaced
# ----------------------------------------------------------------------


def replay_on(nic_class, ring, inbox_capacity, overhead_bits, actions):
    """Run one schedule of sends / receiver takes / a failure against a NIC
    implementation; returns everything an observer of the port can see.

    Every action is scheduled before the run starts, so at an instant it
    shares with one of the port's own completions the action comes first
    on either implementation (its sequence number is lower): the schedules
    are full of such ties and what each party sees must still be identical.
    The trace is kept per party — the senders, the receiver, the consumer,
    the ring-space watchers — because where two of them act in one instant
    their relative order is exactly what a handler may move (DESIGN.md §5).
    """
    sim = Simulator()
    inbox = Channel(sim, name="inbox", capacity=inbox_capacity)
    seen = {"send": [], "drop": [], "deliver": [], "take": [], "ring-space": []}

    def deliver(item):
        accepted = inbox.put(item)
        seen["deliver"].append((sim.now, item, accepted))
        return accepted

    nic = nic_class(
        sim, 1.0, deliver, queue_limit=ring, per_packet_overhead_bits=overhead_bits,
        on_drop=lambda item: seen["drop"].append((sim.now, item)),
        never_drop=lambda item: item[0] == "ctl",
        deliver_wait=inbox.space_event,
    )

    def send(item, bits):
        space = nic.has_space()
        seen["send"].append((sim.now, item, space, nic.send(item, bits)))

    def watch_ring(tag):
        nic.space_event().add_callback(
            lambda _event: seen["ring-space"].append((sim.now, tag))
        )

    for index, (kind, at, arg) in enumerate(actions):
        if kind in ("pkt", "ctl"):
            sim.schedule(at, send, (kind, index), arg)
        elif kind == "take":
            sim.schedule(at, lambda: seen["take"].append((sim.now, inbox.try_get())))
        elif kind == "watch":
            sim.schedule(at, watch_ring, index)
        else:
            sim.schedule(at, nic.fail)
    sim.run()
    # (not the final ``now``: a port failed in the instant it accepted an
    # item leaves that item's completion behind as a no-op event)
    seen["left in the inbox"] = inbox.items()
    return (
        seen, nic.drops, nic.tx_packets, nic.tx_bits, nic.deliver_stalls,
        nic.txq_depth_peak, nic.has_space(),
    )


# integer instants, and sizes that serialise in whole and fractional
# microseconds at 1 Gbps: completions keep landing on action instants
_INSTANT = st.integers(min_value=0, max_value=40).map(float)
_BITS = st.sampled_from([500, 1_000, 1_500, 2_000, 3_000])
_ACTION = st.one_of(
    st.tuples(st.just("pkt"), _INSTANT, _BITS),
    st.tuples(st.just("pkt"), _INSTANT, _BITS),
    st.tuples(st.just("ctl"), _INSTANT, _BITS),
    st.tuples(st.just("take"), _INSTANT, st.none()),
    st.tuples(st.just("watch"), _INSTANT, st.none()),
    st.tuples(st.just("fail"), _INSTANT, st.none()),
)


class TestFifoServerMatchesTheDrainProcess:
    @settings(max_examples=500, deadline=None)
    @given(
        ring=st.sampled_from([None, 1, 2, 3]),
        inbox_capacity=st.sampled_from([None, 1, 2]),
        overhead_bits=st.sampled_from([0, 600]),
        actions=st.lists(_ACTION, min_size=1, max_size=30),
    )
    # two producers parked on a ring of one, one slot freed, the port goes
    # idle: the next item (handed straight to the wire) must wake the other
    @example(
        ring=1, inbox_capacity=None, overhead_bits=0,
        actions=[("pkt", 20.0, 500), ("pkt", 21.0, 500), ("watch", 20.0, None),
                 ("watch", 20.0, None), ("pkt", 19.0, 1_000)],
    )
    def test_same_schedule_same_trace(self, ring, inbox_capacity, overhead_bits, actions):
        args = (ring, inbox_capacity, overhead_bits, actions)
        assert replay_on(Nic, *args) == replay_on(DrainNic, *args)

    def test_a_refusing_receiver_parks_the_port_until_it_frees_space(self):
        actions = [("pkt", 0.0, 1_000)] * 4 + [("take", 10.0, None), ("take", 20.0, None)]
        got = replay_on(Nic, 8, 1, 0, actions)
        assert got == replay_on(DrainNic, 8, 1, 0, actions)
        seen, drops, tx_packets, _bits, stalls, peak, _space = got
        delivered = [(at, item[1]) for at, item, accepted in seen["deliver"] if accepted]
        assert delivered == [(1.0, 0), (10.0, 1), (20.0, 2)]
        assert (drops, tx_packets, stalls, peak) == (0, 3, 3, 3)  # the 4th is still parked

    def test_failure_mid_serialisation_delivers_nothing_more(self):
        actions = [("pkt", 0.0, 2_000), ("pkt", 0.0, 2_000), ("fail", 1.0, None)]
        got = replay_on(Nic, None, None, 0, actions)
        assert got == replay_on(DrainNic, None, None, 0, actions)
        assert got[0]["deliver"] == []

    def test_one_event_per_item_and_none_while_idle(self, sim):
        nic = Nic(sim, 1.0, deliver=lambda item: None)
        sim.run()
        assert sim.events_processed == 0  # an idle port is not a parked process
        for index in range(5):
            nic.send(index, 1_000)
        sim.run()
        assert (nic.tx_packets, sim.events_processed) == (5, 5)

    def test_failing_a_parked_port_releases_its_wait_edge(self, sim):
        with sanitized() as suite:
            inbox = Channel(sim, capacity=1)
            nic = Nic(sim, 1.0, inbox.put, deliver_wait=inbox.space_event)
            nic.send("a", 1_000)
            nic.send("b", 1_000)
            sim.run()
            assert nic.deliver_stalls == 1
            assert suite.waits._edges  # parked: the edge is held
            nic.fail()
            assert not suite.waits._edges


class TestPercentiles:
    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_percentiles_dict(self):
        result = percentiles(range(101), (5, 50, 95))
        assert result[5.0] == pytest.approx(5)
        assert result[50.0] == pytest.approx(50)
        assert result[95.0] == pytest.approx(95)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile(array("d"), 50)
        assert percentiles([]) == {} and percentiles(array("d")) == {}

    @settings(max_examples=400, deadline=None)
    @given(
        samples=st.lists(st.floats(), min_size=1, max_size=40)
        | st.lists(st.sampled_from([0.0, 1.0, 2.5, -3.0, 1e300]), min_size=1, max_size=40),
        q=st.sampled_from([0, 100, 50, 99.9]) | st.floats(0, 100),
        as_array=st.booleans(),
    )
    @example(samples=[7.0], q=0, as_array=False)
    @example(samples=[7.0], q=100, as_array=True)
    @example(samples=[2.0, 2.0, 2.0, 1.0], q=37.5, as_array=False)
    @example(samples=[1.0, float("nan"), 3.0], q=50, as_array=True)
    @example(samples=[1.0, float("inf")], q=50, as_array=False)
    def test_same_float_as_numpy(self, samples, q, as_array):
        """The pure-Python interpolation is numpy's "linear" method, so a
        chain process gets ``np.percentile``'s answer without numpy."""
        import numpy as np

        data = array("d", samples) if as_array else samples
        with np.errstate(all="ignore"):
            expected = float(np.percentile(np.asarray(samples, dtype=float), q))
            expected_fig8 = {
                float(p): float(np.percentile(np.asarray(samples, dtype=float), p))
                for p in (q, 5, 25, 50, 75, 95)
            }

        def same(got, want):
            return type(got) is float and (got == want or math.isnan(got) and math.isnan(want))

        assert same(percentile(data, q), expected)
        got = percentiles(data, (q, 5, 25, 50, 75, 95))
        assert got.keys() == expected_fig8.keys()
        assert all(same(got[p], expected_fig8[p]) for p in got)


class TestLatencyRecorder:
    def test_summary(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record(float(value))
        summary = recorder.summary()
        assert summary[50.0] == pytest.approx(50.5)
        assert len(recorder) == 100
        assert recorder.mean() == pytest.approx(50.5)

    def test_cdf_monotone(self):
        recorder = LatencyRecorder()
        for value in [5, 1, 9, 3, 7]:
            recorder.record(value)
        cdf = recorder.cdf()
        xs = [x for x, _ in cdf]
        ys = [y for _, y in cdf]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    def test_windowed_mean(self):
        recorder = LatencyRecorder()
        recorder.record(10.0, timestamp=0.0)
        recorder.record(20.0, timestamp=100.0)
        recorder.record(30.0, timestamp=600.0)
        windows = recorder.windowed_mean(500.0)
        assert windows[0] == (0.0, pytest.approx(15.0))
        assert windows[1] == (500.0, pytest.approx(30.0))

    def test_windowed_mean_skips_gap_windows(self):
        recorder = LatencyRecorder()
        recorder.record(1.0, timestamp=0.0)
        recorder.record(2.0, timestamp=2600.0)
        windows = recorder.windowed_mean(500.0)
        assert len(windows) == 2


class TestThroughputMeter:
    def test_gbps_over_span(self):
        meter = ThroughputMeter()
        meter.add(10_000, now=0.0)
        meter.add(10_000, now=2.0)  # 20k bits over 2µs = 10 Gbps
        assert meter.gbps() == pytest.approx(10.0)
        assert meter.packets == 2

    def test_explicit_duration(self):
        meter = ThroughputMeter()
        meter.add(5_000, now=1.0)
        assert meter.gbps(duration_us=1.0) == pytest.approx(5.0)

    def test_zero_duration_is_zero(self):
        meter = ThroughputMeter()
        meter.add(100, now=5.0)
        assert meter.gbps() == 0.0
