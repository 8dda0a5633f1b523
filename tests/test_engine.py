"""Unit tests for the discrete-event engine."""

import pytest

from repro.simnet.engine import (
    Channel,
    Interrupt,
    ProcessKilled,
    SimulationError,
    Simulator,
)


class TestEventBasics:
    def test_succeed_delivers_value(self, sim):
        event = sim.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed(42)
        sim.run()
        assert seen == [42]

    def test_event_cannot_trigger_twice(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_callback_added_after_trigger_still_fires(self, sim):
        event = sim.event()
        event.succeed("late")
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["late"]


class TestTimeoutsAndTime:
    def test_timeout_advances_clock(self, sim):
        def body():
            yield sim.timeout(5.5)
            return sim.now

        assert sim.run_process(body()) == 5.5

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_run_until_stops_early(self, sim):
        sim.schedule(100.0, lambda: None)
        stopped_at = sim.run(until=10.0)
        assert stopped_at == 10.0

    def test_same_time_events_fire_in_schedule_order(self, sim):
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule(1.0, order.append, "b")
        sim.schedule(1.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]


class TestProcesses:
    def test_process_returns_value(self, sim):
        def body():
            yield sim.timeout(1)
            return "done"

        assert sim.run_process(body()) == "done"

    def test_nested_yield_from(self, sim):
        def inner():
            yield sim.timeout(2)
            return 10

        def outer():
            value = yield from inner()
            yield sim.timeout(3)
            return value + 1

        assert sim.run_process(outer()) == 11
        assert sim.now == 5

    def test_failed_event_raises_inside_process(self, sim):
        event = sim.event()
        sim.schedule(1.0, event.fail, ValueError("boom"))

        def body():
            yield event

        proc = sim.process(body())
        sim.run()
        assert not proc.ok
        assert isinstance(proc.value, ValueError)

    def test_killed_process_never_resumes(self, sim):
        progress = []

        def body():
            progress.append("start")
            yield sim.timeout(10)
            progress.append("after")  # must never run

        proc = sim.process(body())
        sim.schedule(5.0, proc.kill)
        sim.run()
        assert progress == ["start"]
        assert not proc.alive
        assert isinstance(proc.value, ProcessKilled)

    def test_interrupt_raises_at_wait_point(self, sim):
        caught = []

        def body():
            try:
                yield sim.timeout(100)
            except Interrupt as interrupt:
                caught.append(interrupt.cause)
            return "interrupted"

        proc = sim.process(body())
        sim.schedule(2.0, proc.interrupt, "reason")
        sim.run()
        assert caught == ["reason"]
        assert proc.value == "interrupted"

    def test_yielding_non_event_is_an_error(self, sim):
        def body():
            yield 42

        with pytest.raises(SimulationError):
            sim.process(body())
            sim.run()

    def test_deadlock_detected_by_run_process(self, sim):
        def body():
            yield sim.event()  # never triggered

        with pytest.raises(SimulationError):
            sim.run_process(body())


class TestCrashedProcesses:
    """A fire-and-forget process that dies of an exception is named on the
    simulator instead of vanishing (it used to surface only downstream,
    e.g. as "root deleted 11693 of 24000 packets")."""

    def test_unwatched_crash_is_reported_by_name(self, sim):
        def worker():
            yield sim.timeout(1)
            raise AttributeError("boom")

        sim.process(worker(), name="nat-0-worker3")
        sim.run()
        assert [(name, type(error)) for name, error in sim.crashed] == [
            ("nat-0-worker3", AttributeError)
        ]

    def test_clean_runs_and_fail_stop_kills_record_nothing(self, sim):
        def body():
            yield sim.timeout(10)

        sim.process(body())
        victim = sim.process(body())
        sim.schedule(5.0, victim.kill)
        sim.run()
        assert sim.crashed == []

    def test_waited_on_crash_belongs_to_the_waiter(self, sim):
        def child():
            yield sim.timeout(1)
            raise ValueError("handled upstream")

        def parent():
            try:
                yield sim.process(child())
            except ValueError:
                return "caught"

        assert sim.run_process(parent()) == "caught"
        assert sim.crashed == []

    def test_run_process_raises_instead_of_recording(self, sim):
        def body():
            yield sim.timeout(1)
            raise ValueError("to the caller")

        with pytest.raises(ValueError):
            sim.run_process(body())
        assert sim.crashed == []

    def test_record_stays_out_of_the_engine_counters(self, sim):
        from repro.simnet.monitor import engine_counters

        def worker():
            raise RuntimeError("x")
            yield

        before = engine_counters(sim).as_dict().keys()
        sim.process(worker(), name="w")
        sim.run()
        assert len(sim.crashed) == 1
        assert engine_counters(sim).as_dict().keys() == before


class TestCombinators:
    def test_any_of_returns_first(self, sim):
        def body():
            winner, value = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(2, "fast")])
            return (sim.now, value)

        resumed_at, value = sim.run_process(body())
        assert value == "fast"
        assert resumed_at == pytest.approx(2)

    def test_all_of_waits_for_all(self, sim):
        def body():
            values = yield sim.all_of([sim.timeout(5, "a"), sim.timeout(2, "b")])
            return values

        assert sim.run_process(body()) == ["a", "b"]
        assert sim.now == pytest.approx(5)

    def test_all_of_empty_fires_immediately(self, sim):
        def body():
            values = yield sim.all_of([])
            return values

        assert sim.run_process(body()) == []


class TestChannel:
    def test_fifo_order(self, sim):
        channel = Channel(sim)
        channel.put(1)
        channel.put(2)

        def body():
            first = yield channel.get()
            second = yield channel.get()
            return [first, second]

        assert sim.run_process(body()) == [1, 2]

    def test_get_blocks_until_put(self, sim):
        channel = Channel(sim)

        def consumer():
            value = yield channel.get()
            return (sim.now, value)

        proc = sim.process(consumer())
        sim.schedule(7.0, channel.put, "x")
        sim.run()
        assert proc.value == (7.0, "x")

    def test_remove_if_deletes_queued_items(self, sim):
        channel = Channel(sim)
        for value in range(6):
            channel.put(value)
        removed = channel.remove_if(lambda v: v % 2 == 0)
        assert removed == 3
        assert channel.items() == [1, 3, 5]

    def test_put_front(self, sim):
        channel = Channel(sim)
        channel.put("b")
        channel.put_front("a")
        assert channel.items() == ["a", "b"]

    def test_try_get(self, sim):
        channel = Channel(sim)
        assert channel.try_get() is None
        channel.put(9)
        assert channel.try_get() == 9


class TestDeterminism:
    def test_two_runs_identical(self):
        def run_once():
            sim = Simulator()
            trace = []
            channel = Channel(sim)

            def producer():
                for i in range(50):
                    channel.put(i)
                    yield sim.timeout(0.7)

            def consumer():
                while True:
                    value = yield channel.get()
                    trace.append((sim.now, value))

            sim.process(producer())
            sim.process(consumer())
            sim.run(until=100)
            return trace

        assert run_once() == run_once()
