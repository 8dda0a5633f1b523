"""Regression tests for the engine hot-path overhaul.

Covers the semantics the deque/microtask rewrite must preserve:

* :class:`Channel` FIFO behaviour under concurrent getters, ``put_front``,
  ``remove_if`` with parked getters, and ``clear`` with a parked getter;
* deterministic event ordering — the microtask fast-path must produce the
  *bit-for-bit identical* execution order of a heap-only engine, proven
  against a reference implementation embedded in this file;
* inline tail continuations — process-level tie storms replay the seed
  engine's exact ``(time, tag)`` trace, with fewer events;
* :class:`DeadlineQueue` — every timer at the bit-identical instant and
  tie-break order ``Simulator.schedule`` would give it, behind one heap
  entry, settled timers dropped without an event;
* a deterministic events-per-packet / heap-peak gate on a 600-packet chain;
* RPC waiter hygiene — a timed-out call's stale waiter leaves ``_pending``
  and a lost race's :class:`AnyOf` detaches from the losing events;
* the hot-path counters surfaced through :mod:`repro.simnet.monitor`.
"""

from __future__ import annotations

import hashlib
import heapq

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.simnet.engine import (
    AnyOf,
    Channel,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)
from repro.simnet.monitor import channel_depth_peaks, engine_counters
from repro.simnet.network import Link, Network
from repro.simnet.rpc import RpcEndpoint, RpcTimeout
from tests import legacy_engine


# ---------------------------------------------------------------------------
# Channel semantics after the deque swap
# ---------------------------------------------------------------------------


class TestChannelSemantics:
    def test_fifo_order_with_concurrent_getters(self, sim):
        """Parked getters are served strictly in arrival order."""
        channel = Channel(sim, name="c")
        got = []

        def getter(k):
            value = yield channel.get()
            got.append((k, value))

        for k in range(5):
            sim.process(getter(k))

        def feeder():
            yield sim.timeout(1.0)
            for i in range(5):
                channel.put(i)

        sim.process(feeder())
        sim.run()
        # getter k (registered k-th) receives item k (put k-th)
        assert got == [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]

    def test_fifo_order_interleaved_put_get(self, sim):
        channel = Channel(sim, name="c")
        channel.put("a")
        channel.put("b")
        first = channel.get()
        second = channel.get()
        third = channel.get()  # parks: queue empty
        channel.put("c")
        sim.run()
        assert (first.value, second.value, third.value) == ("a", "b", "c")

    def test_put_front_jumps_the_queue(self, sim):
        channel = Channel(sim, name="c")
        channel.put(1)
        channel.put(2)
        channel.put_front(0)
        assert [channel.try_get() for _ in range(3)] == [0, 1, 2]

    def test_put_front_wakes_parked_getter(self, sim):
        channel = Channel(sim, name="c")
        event = channel.get()  # parks
        channel.put_front("urgent")
        sim.run()
        assert event.value == "urgent"

    def test_remove_if_with_waiting_getters(self, sim):
        """Deleting queued items must not disturb parked getters: the next
        put still reaches the oldest waiting getter (the §5.3 duplicate
        filter deletes packets out of framework queues in place)."""
        channel = Channel(sim, name="c")
        first = channel.get()
        second = channel.get()
        assert channel.remove_if(lambda item: True) == 0  # nothing queued
        channel.put("x")
        channel.put("y")
        sim.run()
        assert (first.value, second.value) == ("x", "y")

    def test_remove_if_filters_queued_items(self, sim):
        channel = Channel(sim, name="c")
        for i in range(6):
            channel.put(i)
        removed = channel.remove_if(lambda item: item % 2 == 0)
        assert removed == 3
        assert channel.items() == [1, 3, 5]
        assert len(channel) == 3

    def test_clear_with_parked_getter(self, sim):
        """clear() empties queued items but leaves parked getters wired."""
        channel = Channel(sim, name="c")
        event = channel.get()  # parks
        assert channel.clear() == 0
        channel.put("after-clear")
        sim.run()
        assert event.value == "after-clear"
        # and clearing actual items reports the count
        channel.put(1)
        channel.put(2)
        assert channel.clear() == 2
        assert len(channel) == 0

    def test_depth_peak_tracks_high_water_mark(self, sim):
        channel = Channel(sim, name="c")
        for i in range(7):
            channel.put(i)
        for _ in range(7):
            channel.try_get()
        channel.put(99)
        assert channel.depth_peak == 7


# ---------------------------------------------------------------------------
# determinism: microtask fast-path vs a reference heap-only engine
# ---------------------------------------------------------------------------


class ReferenceSimulator:
    """The seed engine's scheduling semantics, minimally: one heap keyed by
    ``(time, seq)``, zero-delay callbacks included. The production engine
    must replay the exact same callback order."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback, args))
        self._seq += 1

    def run(self):
        while self._heap:
            time, _seq, callback, args = heapq.heappop(self._heap)
            self.now = time
            callback(*args)


def _ordering_workload(sim, trace):
    """A scheduling pattern that interleaves zero-delay and delayed work at
    shared instants — every case where heap/microtask order could diverge:
    zero-delay after a delayed entry due *now*, nested cascades, ties."""

    def emit(tag):
        trace.append((sim.now, tag))

    def cascade(tag, depth):
        emit(tag)
        if depth:
            sim.schedule(0.0, cascade, f"{tag}>", depth - 1)

    sim.schedule(5.0, emit, "t5-a")
    sim.schedule(0.0, cascade, "z0", 3)
    sim.schedule(5.0, cascade, "t5-b", 2)
    sim.schedule(2.0, emit, "t2")
    sim.schedule(0.0, emit, "z1")

    def at_t2_mixer():
        emit("t2-mixer")
        sim.schedule(0.0, emit, "t2-z")
        sim.schedule(3.0, emit, "t5-late")  # lands at t=5, after t5-a/b
        sim.schedule(0.0, cascade, "t2-casc", 2)

    sim.schedule(2.0, at_t2_mixer)
    # two entries for the same future instant scheduled from different times
    sim.schedule(7.0, emit, "t7-a")


def test_microtask_order_matches_reference_heap_engine(sim):
    reference = ReferenceSimulator()
    expected = []
    _ordering_workload(reference, expected)
    reference.run()

    actual = []
    _ordering_workload(sim, actual)
    sim.run()

    assert actual == expected
    assert len(actual) > 10  # the workload actually exercised something


def test_microtask_order_matches_reference_on_random_schedules(sim):
    """Randomised (but seeded) schedule mixes replay identically."""
    import random

    rng = random.Random(1234)
    plan = [(rng.choice([0.0, 0.0, 1.0, 2.5]), k) for k in range(200)]

    def load(s, trace):
        def emit(tag):
            trace.append((s.now, tag))
            # every third callback schedules follow-up work, half of it
            # zero-delay, from *inside* the run loop
            if tag % 3 == 0:
                s.schedule(0.0, emit, tag + 1000)
            if tag % 7 == 0:
                s.schedule(1.5, emit, tag + 2000)

        for delay, tag in plan:
            s.schedule(delay, emit, tag)

    reference = ReferenceSimulator()
    expected = []
    load(reference, expected)
    reference.run()

    actual = []
    load(sim, actual)
    sim.run()

    assert actual == expected


def test_zero_delay_preserves_scheduling_order_with_due_heap_entry(sim):
    """A heap entry due at `now` with a smaller seq runs before a microtask
    enqueued after it — the documented (time, seq) tie-break."""
    trace = []

    def outer():
        sim.schedule(1.0, trace.append, "heap-first")  # seq N (due at t=1)

    sim.schedule(0.0, outer)
    sim.run(until=0.5)
    # at t=1 the heap entry exists; schedule a microtask *after* advancing
    sim.schedule(0.5, lambda: sim.schedule(0.0, trace.append, "micro-second"))
    sim.run()
    assert trace == ["heap-first", "micro-second"]


def test_negative_delay_rejected_and_seq_not_burned(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    trace = []
    sim.schedule(0.0, trace.append, "a")
    sim.schedule(0.0, trace.append, "b")
    sim.run()
    assert trace == ["a", "b"]


# ---------------------------------------------------------------------------
# inline tail continuations vs the always-enqueue seed engine
# (tests/legacy_engine.py: one heap, every wake-up enqueued)
# ---------------------------------------------------------------------------


N_CHANNELS = 2
DELAYS = st.integers(0, 3)  # small integers: every instant is a tie storm
STEPS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("put"), st.integers(0, N_CHANNELS - 1)),
    st.tuples(st.just("get"), st.integers(0, N_CHANNELS - 1)),
    st.tuples(st.just("race"), st.integers(0, N_CHANNELS - 1), DELAYS),
    st.tuples(st.just("kill"), st.integers(0, 5)),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),
)
PROGRAMS = st.lists(st.lists(STEPS, max_size=8), min_size=1, max_size=6)


def _run_program(engine, program):
    """Interpret ``program`` (one step list per process) on ``engine``;
    returns the ``(time, tag)`` trace of every step and interruption."""
    sim = engine.Simulator()
    channels = [engine.Channel(sim, name=f"c{i}") for i in range(N_CHANNELS)]
    trace = []
    procs = []

    def body(pid, steps):
        for index, step in enumerate(steps):
            tag = f"p{pid}.{index}.{step[0]}"
            try:
                if step[0] == "sleep":
                    yield sim.timeout(float(step[1]))
                elif step[0] == "put":
                    channels[step[1]].put(tag)
                elif step[0] == "get":
                    tag += ":" + (yield channels[step[1]].get())
                elif step[0] == "race":
                    get = channels[step[1]].get()
                    winner, _value = yield sim.any_of([get, sim.timeout(float(step[2]))])
                    tag += ":get" if winner is get else ":timer"
                elif step[1] < len(procs) and step[1] != pid:
                    getattr(procs[step[1]], step[0])()
            except engine.Interrupt:
                tag += "!interrupted"
            trace.append((sim.now, tag))

    for pid, steps in enumerate(program):
        procs.append(sim.process(body(pid, steps), name=f"p{pid}"))
    sim.run()
    return sim, trace


# a sleeper parked on an inline-eligible timer (nothing else due at t=2),
# interrupted / killed at t=1 by a process that then sleeps past it
PARKED_INTERRUPT = [[("sleep", 2), ("put", 0)], [("sleep", 1), ("interrupt", 0), ("sleep", 3)]]
PARKED_KILL = [[("sleep", 2), ("put", 0)], [("sleep", 1), ("kill", 0), ("sleep", 3)]]


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
@example(PARKED_INTERRUPT)
@example(PARKED_KILL)
def test_process_tie_storms_replay_the_seed_engine_trace(program):
    import repro.simnet.engine as engine

    _seed_sim, expected = _run_program(legacy_engine, program)
    _sim, actual = _run_program(engine, program)
    assert actual == expected


def test_lone_sleeper_costs_one_event_per_wake_up(sim):
    """start + 3 x (timer fire, resumed inline) — not 3 x (fire, resume)."""
    woke = []

    def sleeper():
        for _ in range(3):
            yield sim.timeout(1.0)
            woke.append(sim.now)

    sim.process(sleeper())
    sim.run()
    assert woke == [1.0, 2.0, 3.0]
    assert sim.events_processed == 4


def test_get_on_a_non_empty_channel_continues_inline(sim):
    channel = Channel(sim, name="c")
    for item in range(5):
        channel.put(item)
    got = []

    def drain():
        while len(got) < 5:
            got.append((yield channel.get()))

    sim.process(drain())
    sim.run()
    assert got == [0, 1, 2, 3, 4]
    assert sim.events_processed == 1  # the process start; no resume round trips


def test_wake_up_is_enqueued_when_something_else_is_due_now(sim):
    """The rule's condition: with a tie at the instant, the resume goes
    through the microtask queue behind the earlier-scheduled work."""
    order = []

    def sleeper():
        yield sim.timeout(1.0)
        order.append("sleeper")

    sim.process(sleeper())
    sim.run(until=0.5)
    sim.schedule(0.5, order.append, "tie")  # also due at t=1, scheduled later
    sim.run()
    assert order == ["tie", "sleeper"]
    assert sim.events_processed == 4  # start, fire, tie, resume


def test_killed_process_parked_on_an_inline_timer_never_resumes(sim):
    ran = []

    def sleeper():
        yield sim.timeout(2.0)
        ran.append("resumed")

    proc = sim.process(sleeper())
    sim.run(until=1.0)
    proc.kill()
    sim.run()
    assert ran == [] and not proc.alive


def test_interrupted_process_ignores_the_stale_inline_wake_up(sim):
    log = []

    def sleeper():
        try:
            yield sim.timeout(2.0)
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))
        yield sim.timeout(5.0)
        log.append(("done", sim.now))

    proc = sim.process(sleeper())
    sim.run(until=1.0)
    proc.interrupt("why")
    sim.run()
    # the first timer still fires at t=2 — into a process now waiting on
    # another event — and must not wake it early
    assert log == [("interrupted", 1.0, "why"), ("done", 6.0)]


# ---------------------------------------------------------------------------
# deadline queues
# ---------------------------------------------------------------------------


class TestDeadlineQueue:
    @staticmethod
    def _twin_traces(load):
        """Run ``load(arm, sim, emit)`` twice: ``arm(delay, *args)`` = one
        heap entry per timer (``sim.schedule``), and = a DeadlineQueue. A
        timer calls what ``load`` returns, or ``emit`` if it returns None."""
        traces = []
        sims = []
        for queued in (False, True):
            sim = Simulator()
            trace = []
            on_fire = []

            def emit(tag, sim=sim, trace=trace):
                trace.append((sim.now, tag))

            def fire(*args, on_fire=on_fire):
                on_fire[0](*args)

            if queued:
                arm = sim.deadline_queue(fire).add
            else:
                def arm(delay, *args, sim=sim, fire=fire):
                    sim.schedule(delay, fire, *args)
            on_fire.append(load(arm, sim, emit) or emit)
            sim.run()
            traces.append(trace)
            sims.append(sim)
        return traces, sims

    def test_same_instants_and_tie_order_behind_one_heap_entry(self):
        def load(arm, sim, emit):
            def tick(k):
                # 0.1 * k accumulates rounding: due times must be the
                # now + delay floats computed at insert, not re-derived
                arm(0.7, f"timer{k}")
                sim.schedule(0.7, emit, f"tie{k}")  # same instant, later seq
                if k < 50:
                    sim.schedule(0.1, tick, k + 1)

            tick(0)

        (scheduled, queued), (plain_sim, queue_sim) = self._twin_traces(load)
        assert queued == scheduled
        assert len(queued) == 102
        # 8 ties + the tick either way; 8 timers outstanding vs 1 armed entry
        assert (plain_sim.heap_peak, queue_sim.heap_peak) == (17, 10)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # when the timer is armed
                st.booleans(),  # through the queue (else a plain schedule)
                st.integers(0, 3),  # its delay — 0 included
                st.one_of(st.none(), st.tuples(st.booleans(), st.integers(0, 2))),
            ),
            max_size=12,
        )
    )
    def test_same_instant_heads_fire_in_schedule_order(self, plan):
        """Timers sharing an instant fire from one event — in exactly the
        order, relative to every plain ``schedule`` and microtask at that
        instant, that one heap entry each would give (a fired timer may arm
        a follow-up, zero-delay included)."""

        def load(arm, sim, emit):
            def fire(tag, follow_up):
                emit(tag)
                if follow_up is not None:
                    start(f"{tag}+", *follow_up, None)

            def start(tag, queued, delay, follow_up):
                if queued:
                    arm(float(delay), tag, follow_up)
                else:
                    sim.schedule(float(delay), fire, tag, follow_up)

            for index, (at, queued, delay, follow_up) in enumerate(plan):
                sim.schedule(float(at), start, f"t{index}", queued, delay, follow_up)
            return fire

        (scheduled, queued), _sims = self._twin_traces(load)
        assert queued == scheduled

    def test_one_batchs_timers_cost_one_event(self, sim):
        fired = []
        queue = sim.deadline_queue(fired.append)

        def batch():
            for k in range(16):
                queue.add(10.0, k)

        sim.schedule(1.0, batch)
        sim.run()
        assert fired == list(range(16)) and sim.now == 11.0
        assert sim.events_processed == 2  # the batch, then all 16 timers

    def test_non_monotone_insert_gets_its_own_heap_entry(self):
        def load(arm, sim, emit):
            arm(10.0, "slow")
            arm(10.0, "slow-too")
            arm(3.0, "fast")  # earlier than the queue's tail
            sim.schedule(1.0, arm, 2.0, "fast-tie")  # due at 3.0 too, later seq
            arm(0.0, "now")  # zero delay: due this instant, before any later work
            sim.schedule(0.0, emit, "micro")

        (scheduled, queued), _sims = self._twin_traces(load)
        assert queued == scheduled == [
            (0.0, "now"), (0.0, "micro"), (3.0, "fast"), (3.0, "fast-tie"),
            (10.0, "slow"), (10.0, "slow-too"),
        ]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.deadline_queue(lambda: None).add(-1.0)

    def test_settled_heads_are_dropped_without_an_event(self, sim):
        fired = []
        done = set()
        queue = sim.deadline_queue(fired.append, settled=lambda k: k in done)
        for k in range(10):
            sim.schedule(float(k), queue.add, 100.0, k)
        # everything but 0 (the armed head), 6 and 9 settles long before due
        sim.schedule(50.0, done.update, {1, 2, 3, 4, 5, 7, 8})
        sim.run()
        assert fired == [0, 6, 9]
        assert sim.now == 109.0
        assert len(queue) == 0
        assert sim.events_processed == 10 + 1 + 3  # adds, the settle, 3 fires
        assert sim.heap_peak <= 11  # never one entry per queued timer on top

    def test_lossy_link_retransmits_at_the_parents_instants(self):
        """40 flushes over a 40 %-loss link, the timeout lowered live after
        the 20th (non-monotone deadlines): every reissue at the instant, and
        in the order, the per-op ``sim.schedule`` of the parent commit gave
        (digest recorded there)."""
        from repro.simnet.network import Link, Network
        from repro.store.client import StoreClient
        from repro.store.cluster import StoreCluster
        from repro.store.datastore import DatastoreInstance
        from tests.conftest import default_specs, make_packet

        sim = Simulator()
        network = Network(sim, Link(latency_us=14.0), seed=7)
        store = DatastoreInstance(sim, network, "store0", n_threads=4)
        network.connect("nf-rt", "store0", Link(latency_us=14.0, loss=0.4))
        client = StoreClient(
            sim, network, StoreCluster([store]), vertex_id="nf", instance_id="nf-rt",
            specs=default_specs(), wait_for_acks=False, retransmit_timeout_us=100.0,
        )
        instants = []
        reissue = client._reissue

        def spy(request, attempt):
            instants.append((sim.now, attempt))
            reissue(request, attempt)

        client._reissue = spy

        def body():
            for clock in range(1, 41):
                client.begin_packet(make_packet(clock=clock))
                yield from client.update("counter", None, "incr", 1)
                yield sim.timeout(7.0)
                if clock == 20:
                    client.retransmit_timeout_us = 40.0
            yield sim.timeout(60_000)

        sim.run_process(body())
        assert store.peek(client._key("counter", None)) == 40  # exactly once each
        assert client.stats.retransmissions == len(instants) == 93
        assert instants[:3] == [(100.0, 1), (107.0, 1), (114.0, 1)]
        assert instants[-1] == (2222.3125, 8)
        assert hashlib.sha256(repr(instants).encode()).hexdigest().startswith(
            "b773b4f1c980f066"
        )
        assert sim.heap_peak < 40  # ACKed flushes do not sit on the heap

    def test_acked_flushes_cost_no_timer_events(self, sim, network, client_factory, store):
        client = client_factory("nf-q", wait_for_acks=False, retransmit_timeout_us=500.0)

        def body():
            for _ in range(200):
                yield from client.update("counter", None, "incr", 1)
                yield sim.timeout(1.0)
            yield sim.timeout(2_000.0)

        sim.run_process(body())
        assert store.peek(client._key("counter", None)) == 200
        assert client.stats.retransmissions == 0
        assert len(client._retransmit_timers) == 0
        # ~30 messages in flight plus ONE armed entry for the 200 outstanding
        # timers (the parent's heap held all 200 on top)
        assert sim.heap_peak < 60


# ---------------------------------------------------------------------------
# the count: engine events per packet on a 600-packet chain (no wall clock)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fastpath, events_per_packet, heap_peak",
    # PR 15: 80.8 events/packet and heap peak 2376 off, 27.3 / 758 on;
    # PR 16 (inline continuations, deadline queues): 64.1 / 290 and 20.7 / 204;
    # recorded here (relays are handlers, the NIC a FIFO server): 42.3 / 290
    # and 14.3 / 204
    [(False, 43.5, 350), (True, 15.0, 250)],
    ids=["fastpath-off", "fastpath-on"],  # not the ceilings: they move, the id should not
)
def test_events_per_packet_and_heap_peak_ceilings(fastpath, events_per_packet, heap_peak):
    from repro.analysis.determinism import run_equivalence_once

    runtime = run_equivalence_once(1, fastpath, packets=600, flows=12)
    assert runtime.sim.crashed == []
    assert runtime.egress_meter.packets > 0
    assert sum(root.stats.deleted for root in runtime.roots) == 600
    assert runtime.sim.events_processed / 600 <= events_per_packet
    assert runtime.sim.heap_peak <= heap_peak


@pytest.mark.parametrize(
    "fastpath, calls_per_packet",
    # Python-level calls (generator resumes included) per packet while the
    # same 600-packet run executes. Recorded with one record per update on
    # the commit path: 655.10 off / 400.33 on (3.9, 3.10 and 3.11 count
    # alike; 3.12 fewer); the per-op OpResult / CommitSignal / generator
    # path before it counted 665.35 / 421.89. The fast path makes ~4 store
    # updates a packet, so one call re-added per update breaks the ceiling.
    [(False, 657.0), (True, 402.0)],
    ids=["fastpath-off", "fastpath-on"],
)
def test_python_calls_per_packet_ceilings(fastpath, calls_per_packet):
    """Events per packet cannot see a wrapper that adds no event; this
    count can, and it is exact, so it gates without a wall clock. The
    collector is off while counting, so no finaliser it runs is counted."""
    import gc
    import sys

    from repro.analysis.determinism import run_equivalence_once

    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    def start_counting(_sim, _runtime):
        sys.setprofile(profile)

    collecting = gc.isenabled()
    gc.disable()
    try:
        runtime = run_equivalence_once(1, fastpath, packets=600, flows=12, fault=start_counting)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    assert sum(root.stats.deleted for root in runtime.roots) == 600
    assert calls / 600 <= calls_per_packet


@pytest.mark.parametrize(
    "fastpath, retained_per_packet, per_packet_in_flight",
    # Objects the collector tracks, counted with gc.get_objects() after a
    # gc.collect(), grown since set-up. Recorded with flat records (3.11):
    # 1.11 / 1.39 retained per injected packet, off / on, which is the
    # egress tuple; 26.18 / 14.61 per packet in flight at the backlog's
    # peak (477 / 479 us). The parent's records, one UpdateLogEntry per
    # cross-flow update among them, counted 5.14 / 5.42 and 28.32 / 15.46.
    [(False, 2.25, 27.0), (True, 2.25, 15.0)],
    ids=["fastpath-off", "fastpath-on"],
)
def test_tracked_objects_retained_per_packet_ceilings(
    fastpath, retained_per_packet, per_packet_in_flight
):
    """A record kept per packet as a graph of Python objects makes every
    full collection walk all of them; this count sees one such object per
    packet, exactly, without a wall clock. The first run finds the peak of
    the backlog (the most packets in the root log), the second counts what
    the runtime holds at that instant."""
    import gc

    from repro.analysis.determinism import run_equivalence_once

    def tracked() -> int:
        gc.collect()
        return len(gc.get_objects())

    def in_flight(runtime) -> int:
        return sum(len(root.log) for root in runtime.roots)

    backlog = []
    counts = {}

    def sample(sim, runtime):
        def tick():
            backlog.append((in_flight(runtime), -sim.now))
            if sim.next_event_time() is not None:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        counts["set-up"] = tracked()

    runtime = run_equivalence_once(1, fastpath, packets=600, flows=12, fault=sample)
    assert sum(root.stats.deleted for root in runtime.roots) == 600
    assert (tracked() - counts["set-up"]) / 600 <= retained_per_packet

    peak, minus_at = max(backlog)

    def probe(sim, runtime):
        def look():
            counts["peak"] = tracked()
            counts["in flight"] = in_flight(runtime)

        sim.schedule(-minus_at, look)
        counts["set-up"] = tracked()

    run_equivalence_once(1, fastpath, packets=600, flows=12, fault=probe)
    assert counts["in flight"] == peak > 100
    assert (counts["peak"] - counts["set-up"]) / peak <= per_packet_in_flight


# ---------------------------------------------------------------------------
# RPC waiter hygiene
# ---------------------------------------------------------------------------


@pytest.fixture
def rpc_pair(sim):
    network = Network(sim, Link(latency_us=10.0), seed=3)
    client = RpcEndpoint(sim, network, "client")
    server = RpcEndpoint(sim, network, "server")
    return client, server


class TestRpcWaiterHygiene:
    def test_timeout_removes_stale_waiter_from_pending(self, sim, rpc_pair):
        client, server = rpc_pair
        # server never answers
        with pytest.raises(RpcTimeout):
            sim.run_process(
                client.call("server", "ping", timeout_us=5.0, max_retries=2)
            )
        assert client._pending == {}

    def test_timeout_then_retry_succeeds_and_cleans_up(self, sim, rpc_pair):
        client, server = rpc_pair
        answered = []

        def serve():
            while True:
                request = yield server.requests.get()
                answered.append(request.request_id)
                if len(answered) >= 2:  # drop the first attempt
                    server.respond(request, "pong")

        sim.process(serve())

        value = sim.run_process(
            client.call("server", "ping", timeout_us=50.0, max_retries=3)
        )
        assert value == "pong"
        assert client._pending == {}

    def test_late_response_for_timed_out_id_is_discarded(self, sim, rpc_pair):
        client, server = rpc_pair

        def serve():
            while True:
                request = yield server.requests.get()
                # answer only after the client's timeout fired
                yield sim.timeout(40.0)
                server.respond(request, f"late-{request.request_id}")

        sim.process(serve())
        with pytest.raises(RpcTimeout):
            sim.run_process(client.call("server", "ping", timeout_us=5.0))
        sim.run()  # deliver the late response; must be a no-op
        assert client._pending == {}

    def test_anyof_detaches_from_losing_events(self, sim):
        winner = Event(sim, name="winner")
        loser = Event(sim, name="loser")
        race = AnyOf(sim, [winner, loser])
        winner.succeed("won")
        sim.run()
        assert race.value == (winner, "won")
        # the loser no longer references the AnyOf: its callback list is
        # empty, so triggering it later delivers to nobody
        assert not loser.callbacks
        loser.succeed("too-late")
        sim.run()
        assert race.value == (winner, "won")

    def test_anyof_failed_child_fails_the_race(self, sim):
        a = Event(sim, name="a")
        b = Event(sim, name="b")
        race = AnyOf(sim, [a, b])
        a.fail(RuntimeError("boom"))
        sim.run()
        assert race.triggered and not race.ok
        assert not b.callbacks


# ---------------------------------------------------------------------------
# engine counters / monitor surface
# ---------------------------------------------------------------------------


class TestEngineCounters:
    def test_counters_split_heap_and_microtasks(self, sim):
        for _ in range(4):
            sim.schedule(0.0, lambda: None)
        for i in range(3):
            sim.schedule(1.0 + i, lambda: None)
        sim.run()
        snapshot = engine_counters(sim)
        assert snapshot.events_processed == 7
        assert snapshot.microtasks_processed == 4
        assert snapshot.heap_events == 3
        assert snapshot.heap_peak == 3
        assert snapshot.heap_size == 0
        assert snapshot.microtask_share == pytest.approx(4 / 7)
        payload = snapshot.as_dict()
        assert payload["events_processed"] == 7
        assert payload["microtask_share"] == pytest.approx(4 / 7, abs=1e-4)

    def test_heap_peak_counts_concurrent_timers(self, sim):
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.heap_peak == 10
        sim.run()
        assert sim.heap_peak == 10  # peak is sticky after drain

    def test_channel_depth_peaks_omits_idle_channels(self, sim):
        busy = Channel(sim, name="busy")
        idle = Channel(sim, name="idle")
        for i in range(5):
            busy.put(i)
        peaks = channel_depth_peaks({"busy": busy, "idle": idle})
        assert peaks == {"busy": 5}

    def test_event_callback_delivery_uses_microtasks(self, sim):
        event = Event(sim, name="e")
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed(1)
        sim.run()
        assert seen == [1]
        assert sim.microtasks_processed >= 1

    def test_timer_storm_fan_outs_never_touch_the_heap(self, sim):
        """Zero-delay delivery fan-outs racing a heap deep in armed timers
        (retransmit timers at high load) ride the microtask FIFO: the heap
        sees the periodic timers' fires and nothing else, where the seed
        engine sifted every fan-out callback through it."""
        armed, timers, fires, fanout = 2_000, 40, 6, 8
        for b in range(armed):
            sim.schedule(10_000.0 + b, lambda: None)
        delivered = []

        def deliver(event):
            sim.schedule(0.0, delivered.append, event.value)

        def periodic(k, delay):
            def fire(left):
                event = Event(sim, name="fan")
                for _ in range(fanout):
                    event.add_callback(deliver)
                sim.schedule(0.0, event.succeed, k)
                if left > 1:
                    sim.schedule(delay, fire, left - 1)

            return fire

        for k in range(timers):
            delay = 1.0 + (k % 7) * 0.5
            sim.schedule(delay, periodic(k, delay), fires)
        sim.run(until=9_999.0)
        snapshot = engine_counters(sim)
        assert len(delivered) == timers * fires * fanout
        assert snapshot.heap_events == timers * fires
        assert snapshot.heap_peak == armed + timers
        assert snapshot.microtasks_processed == timers * fires * (2 * fanout + 1)
