"""Unit tests for the event queue."""

from __future__ import annotations

import pytest

from repro.simulation.events import Event, EventQueue


def _noop() -> None:
    pass


class TestEvent:
    def test_cancel_is_idempotent(self):
        event = Event(time=1.0, callback=_noop)
        event.cancel()
        event.cancel()
        assert event.cancelled


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(Event(time=3.0, callback=_noop, label="c"))
        queue.push(Event(time=1.0, callback=_noop, label="a"))
        queue.push(Event(time=2.0, callback=_noop, label="b"))
        assert [queue.pop().label for _ in range(3)] == ["a", "b", "c"]

    def test_equal_times_fifo(self):
        queue = EventQueue()
        for name in "abcde":
            queue.push(Event(time=1.0, callback=_noop, label=name))
        assert [queue.pop().label for _ in range(5)] == list("abcde")

    def test_priority_breaks_time_ties(self):
        queue = EventQueue()
        queue.push(Event(time=1.0, callback=_noop, priority=5, label="later"))
        queue.push(Event(time=1.0, callback=_noop, priority=-5, label="first"))
        assert queue.pop().label == "first"

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(Event(time=-0.5, callback=_noop))

    def test_len_counts_live_events_only(self):
        queue = EventQueue()
        kept = queue.push(Event(time=1.0, callback=_noop))
        dropped = queue.push(Event(time=2.0, callback=_noop))
        dropped.cancel()
        assert len(queue) == 1
        assert queue.pop() is kept
        assert not queue

    def test_cancelled_events_skipped_on_pop(self):
        queue = EventQueue()
        first = queue.push(Event(time=1.0, callback=_noop, label="first"))
        queue.push(Event(time=2.0, callback=_noop, label="second"))
        first.cancel()
        assert queue.pop().label == "second"

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(Event(time=1.0, callback=_noop))
        queue.push(Event(time=4.0, callback=_noop))
        first.cancel()
        assert queue.peek() == (4.0, 0)

    def test_peek_time_empty(self):
        assert EventQueue().peek() is None

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_double_cancel_keeps_count_consistent(self):
        queue = EventQueue()
        event = queue.push(Event(time=1.0, callback=_noop))
        event.cancel()
        event.cancel()
        assert len(queue) == 0

    def test_cancel_of_popped_event_keeps_counter_consistent(self):
        """Regression: cancelling an already-fired event must not
        corrupt the live count (it once made step() believe the queue
        was empty while peek disagreed — an infinite run_until)."""
        queue = EventQueue()
        fired = queue.push(Event(time=1.0, callback=_noop))
        queued = queue.push(Event(time=2.0, callback=_noop))
        assert queue.pop() is fired
        fired.cancel()  # late cancel of the popped event
        assert len(queue) == 1
        assert bool(queue)
        assert queue.pop() is queued

    def test_clear_empties_queue(self):
        queue = EventQueue()
        queue.push(Event(time=1.0, callback=_noop))
        queue.push(Event(time=2.0, callback=_noop))
        queue.clear()
        assert len(queue) == 0
        assert queue.peek() is None

    def test_cancel_after_clear_keeps_counter_consistent(self):
        """Regression: clear() left dropped events flagged as queued, so
        a later cancel() on one drove the live counter negative and
        corrupted __len__/__bool__."""
        queue = EventQueue()
        dropped = queue.push(Event(time=1.0, callback=_noop))
        queue.clear()
        dropped.cancel()  # late cancel of a cleared event
        assert len(queue) == 0
        assert not queue
        survivor = queue.push(Event(time=2.0, callback=_noop))
        assert len(queue) == 1
        assert bool(queue)
        assert queue.pop() is survivor
