"""Unit tests for the simulator engine, clock, and periodic tasks."""

from __future__ import annotations

import pytest

from repro.simulation.clock import SimulationClock
from repro.simulation.engine import Simulator
from repro.simulation.events import Event


class TestClock:
    def test_starts_at_zero(self):
        assert SimulationClock().now == 0.0

    def test_advance(self):
        clock = SimulationClock()
        clock.advance_to(5.5)
        assert clock.now == 5.5

    def test_never_rewinds(self):
        clock = SimulationClock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimulationClock(start=-1.0)


class TestScheduling:
    def test_schedule_and_run(self, simulator):
        order = []
        simulator.schedule(2.0, lambda: order.append("b"))
        simulator.schedule(1.0, lambda: order.append("a"))
        simulator.run()
        assert order == ["a", "b"]
        assert simulator.now == 2.0

    def test_negative_delay_rejected(self, simulator):
        with pytest.raises(ValueError):
            simulator.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        with pytest.raises(ValueError):
            simulator.schedule_at(0.5, lambda: None)

    def test_events_can_schedule_events(self, simulator):
        seen = []

        def chain() -> None:
            seen.append(simulator.now)
            if len(seen) < 3:
                simulator.schedule(1.0, chain)

        simulator.schedule(1.0, chain)
        simulator.run()
        assert seen == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize(
        "cancel",
        [
            pytest.param(lambda sim, event: sim.cancel(event), id="simulator"),
            pytest.param(lambda sim, event: event.cancel(), id="event"),
        ],
    )
    def test_cancel_prevents_firing(self, simulator, cancel):
        hits = []
        event = simulator.schedule(1.0, lambda: hits.append(1))
        cancel(simulator, event)
        assert len(simulator.queue) == 0
        assert simulator.run() == 0
        assert hits == []
        assert len(simulator.queue) == 0

    def test_run_until_advances_clock_even_without_events(self, simulator):
        fired = simulator.run_until(42.0)
        assert fired == 0
        assert simulator.now == 42.0

    def test_run_until_leaves_later_events_queued(self, simulator):
        hits = []
        simulator.schedule(1.0, lambda: hits.append("early"))
        simulator.schedule(10.0, lambda: hits.append("late"))
        simulator.run_until(5.0)
        assert hits == ["early"]
        assert simulator.now == 5.0
        simulator.run()
        assert hits == ["early", "late"]

    def test_run_until_past_raises(self, simulator):
        simulator.run_until(5.0)
        with pytest.raises(ValueError):
            simulator.run_until(4.0)

    def test_run_until_same_time_twice_is_a_noop(self, simulator):
        """Back-to-back run_until calls with a repeated bound must fire
        nothing, move nothing, reorder nothing."""
        hits = []
        simulator.schedule(1.0, lambda: hits.append("in"))
        simulator.schedule(5.0, lambda: hits.append("boundary"))
        simulator.schedule(9.0, lambda: hits.append("out"))
        simulator.run_until(5.0)
        assert hits == ["in", "boundary"]
        processed = simulator.events_processed
        fired = simulator.run_until(5.0)
        assert fired == 0
        assert simulator.now == 5.0
        assert simulator.events_processed == processed
        assert hits == ["in", "boundary"]
        simulator.run()
        assert hits == ["in", "boundary", "out"]

    def test_max_events_bound(self, simulator):
        for index in range(10):
            simulator.schedule(index + 1.0, lambda: None)
        fired = simulator.run(max_events=4)
        assert fired == 4
        assert simulator.events_processed == 4


class TestPeriodicTask:
    def test_fires_every_period(self, simulator):
        times = []
        simulator.every(2.0, lambda: times.append(simulator.now))
        simulator.run_until(7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_first_delay_override(self, simulator):
        times = []
        simulator.every(5.0, lambda: times.append(simulator.now), first_delay=1.0)
        simulator.run_until(12.0)
        assert times == [1.0, 6.0, 11.0]

    def test_stop_halts_task(self, simulator):
        times = []
        task = simulator.every(1.0, lambda: times.append(simulator.now))
        simulator.run_until(3.0)
        task.stop()
        simulator.run_until(10.0)
        assert times == [1.0, 2.0, 3.0]
        assert task.stopped

    def test_stop_from_inside_callback(self, simulator):
        times = []

        def tick() -> None:
            times.append(simulator.now)
            if len(times) == 2:
                task.stop()

        task = simulator.every(1.0, tick)
        simulator.run_until(10.0)
        assert times == [1.0, 2.0]

    def test_zero_period_rejected(self, simulator):
        with pytest.raises(ValueError):
            simulator.every(0.0, lambda: None)

    def test_double_start_rejected(self, simulator):
        """Regression: re-arming an armed task leaked the first pending
        event, double-firing the callback every period."""
        times = []
        task = simulator.every(1.0, lambda: times.append(simulator.now))
        with pytest.raises(RuntimeError):
            task.start()
        simulator.run_until(3.0)
        assert times == [1.0, 2.0, 3.0]  # single cadence, no duplicates

    def test_restart_after_stop_allowed(self, simulator):
        times = []
        task = simulator.every(1.0, lambda: times.append(simulator.now))
        simulator.run_until(2.0)
        task.stop()
        task.start()  # the handle is reusable once disarmed
        simulator.run_until(4.0)
        assert times == [1.0, 2.0, 3.0, 4.0]

    def test_stop_from_callback_leaves_other_events_runnable(self, simulator):
        """Regression: a task stopping itself mid-callback must not
        desynchronize the queue — later events still fire and
        run_until terminates."""
        hits = []

        def tick() -> None:
            hits.append(simulator.now)
            task.stop()

        task = simulator.every(1.0, tick)
        simulator.schedule(5.0, lambda: hits.append("late"))
        simulator.run_until(10.0)
        assert hits == [1.0, "late"]
        assert simulator.now == 10.0


NAN = float("nan")


class TestNaNTimes:
    """A NaN time compares false both ways, so every time check is
    written to fail on it: none reaches the heap or the clock."""

    def test_clock_refuses_nan(self):
        clock = SimulationClock()
        with pytest.raises(ValueError, match="nan"):
            clock.advance_to(NAN)
        assert clock.now == 0.0
        with pytest.raises(ValueError, match="nan"):
            SimulationClock(start=NAN)

    def test_schedule_refuses_nan(self, simulator):
        with pytest.raises(ValueError, match="nan"):
            simulator.schedule(NAN, lambda: None)
        with pytest.raises(ValueError, match="nan"):
            simulator.schedule_at(NAN, lambda: None)
        with pytest.raises(ValueError, match="nan"):
            simulator.queue.push(Event(NAN, lambda: None))
        assert simulator.queue._heap == []

    def test_run_until_nan_fires_nothing(self, simulator):
        """A periodic task ran until ``max_events`` stopped it."""
        simulator.every(1.0, lambda: None)
        with pytest.raises(ValueError, match="nan"):
            simulator.run_until(NAN, max_events=10)
        assert simulator.events_processed == 0 and simulator.now == 0.0

    def test_nan_period_rejected(self, simulator):
        with pytest.raises(ValueError, match="nan"):
            simulator.every(NAN, lambda: None)


class TestDeterminism:
    def test_same_seed_same_streams(self):
        first = Simulator(seed=99).random.stream("x").random(5)
        second = Simulator(seed=99).random.stream("x").random(5)
        assert list(first) == list(second)

    def test_named_streams_are_independent(self, simulator):
        a = simulator.random.stream("a").random(3)
        b = simulator.random.stream("b").random(3)
        assert list(a) != list(b)

    def test_fresh_resets_stream(self, simulator):
        first = simulator.random.stream("s").random(3)
        again = simulator.random.fresh("s").random(3)
        assert list(first) == list(again)

    def test_spawned_sources_differ(self, simulator):
        child0 = simulator.random.spawn(0).stream("x").random(3)
        child1 = simulator.random.spawn(1).stream("x").random(3)
        assert list(child0) != list(child1)
