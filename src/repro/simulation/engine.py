"""The discrete-event simulation engine.

:class:`Simulator` glues the event queue, clock, RNG source and trace log
together and exposes the scheduling API the rest of the reproduction is
written against:

* ``schedule(delay, callback)`` / ``schedule_at(time, callback)``;
* ``every(period, callback)`` for periodic tasks (heartbeats, snapshot
  maintenance rounds, §5.1 of the paper);
* ``run()`` / ``run_until(t)`` / ``step()`` drivers.

The engine is deliberately tiny — the paper's network operates in
abstract time units and nothing in its evaluation needs process-style
coroutines — but it is a complete, reusable DES core with cancellation,
deterministic tie-breaking and bounded execution.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional

from repro.obs.profiler import EventProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.simulation.clock import SimulationClock
from repro.simulation.events import Event, EventQueue
from repro.simulation.rng import RandomSource
from repro.simulation.tracing import TraceLog

__all__ = ["Simulator", "PeriodicTask"]


class PeriodicTask:
    """Handle for a repeating callback registered via :meth:`Simulator.every`."""

    def __init__(
        self,
        simulator: "Simulator",
        period: float,
        callback: Callable[[], None],
        label: str,
        priority: int,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._simulator = simulator
        self._period = period
        self._callback = callback
        self._label = label
        self._priority = priority
        self._stopped = False
        self._pending: Optional[Event] = None

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` has been called."""
        return self._stopped

    def start(self, first_delay: Optional[float] = None) -> "PeriodicTask":
        """Arm the task; first firing after ``first_delay`` (default: one period).

        A stopped task may be re-armed: ``start`` clears the stopped
        flag and schedules afresh.

        Raises
        ------
        RuntimeError
            If the task is already armed — re-arming would leak the
            first pending event, double-firing the callback.
        """
        if self._pending is not None:
            raise RuntimeError(
                f"periodic task {self._label!r} is already armed; "
                "stop() it before starting again"
            )
        self._stopped = False
        delay = self._period if first_delay is None else first_delay
        self._pending = self._simulator.schedule(
            delay, self._tick, label=self._label, priority=self._priority
        )
        return self

    def stop(self) -> None:
        """Cancel the task; no further firings occur."""
        self._stopped = True
        if self._pending is not None:
            self._simulator.cancel(self._pending)
            self._pending = None

    def _tick(self) -> None:
        if self._stopped:
            return
        # Clear the handle first so a callback that stops the task does
        # not try to cancel this already-fired event.
        self._pending = None
        self._callback()
        if not self._stopped:
            self._pending = self._simulator.schedule(
                self._period, self._tick, label=self._label, priority=self._priority
            )


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all random streams handed out by :attr:`random`.
    keep_trace_records:
        Whether the trace log stores full records or only counters.
    metrics_enabled:
        Gates the non-essential record paths of :attr:`metrics` and the
        span tracer (essential accounting the protocol reads back, like
        message windows, always records).
    """

    def __init__(
        self,
        seed: int = 0,
        keep_trace_records: bool = True,
        metrics_enabled: bool = True,
    ) -> None:
        self.clock = SimulationClock()
        self.queue = EventQueue()
        self.random = RandomSource(seed)
        self.trace = TraceLog(keep_records=keep_trace_records)
        self.metrics = MetricsRegistry(enabled=metrics_enabled)
        self.spans = SpanTracer(self.trace, self.clock, self.metrics)
        #: Wall-clock profiler; ``None`` keeps the hot loop untouched.
        self.profiler: Optional[EventProfiler] = None
        #: Optional observation barrier (see ``core.round_batch``): an
        #: object with ``pending`` (truthy while observations are
        #: queued), ``before_event(time, priority)`` and ``flush()``.
        #: The hot loop consults it *between* events, so flushing a
        #: batch never schedules — or consumes — an event of its own
        #: and the event count / queue sequence stay identical to an
        #: unbatched run.
        self.observation_barrier = None
        self._events_processed = 0

    def enable_profiling(self) -> EventProfiler:
        """Attach (or return) the wall-clock event profiler."""
        if self.profiler is None:
            self.profiler = EventProfiler()
        return self.profiler

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    @property
    def events_processed(self) -> int:
        """Total number of events fired since construction."""
        return self._events_processed

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        label: str = "",
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.now + delay, callback, label=label, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        label: str = "",
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` to fire at absolute time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        event = Event(time=time, callback=callback, label=label, priority=priority)
        return self.queue.push(event)

    def schedule_transient(
        self,
        delay: float,
        callback: Callable[[], None],
        label: str = "",
        priority: int = 0,
    ) -> None:
        """Schedule a fire-and-forget callback ``delay`` units from now.

        No :class:`Event` handle is created, so the occurrence cannot be
        cancelled — the right shape for the hot high-volume paths
        (message deliveries) where nothing ever holds a reference.  The
        entry lands in the queue's slab (see
        :meth:`EventQueue.push_transient`) and orders exactly as
        :meth:`schedule` would.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.queue.push_transient(
            self.now + delay, callback, priority=priority, label=label
        )

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        self.queue.cancel(event)

    def every(
        self,
        period: float,
        callback: Callable[[], None],
        label: str = "",
        priority: int = 0,
        first_delay: Optional[float] = None,
    ) -> PeriodicTask:
        """Register and start a periodic task firing every ``period`` units."""
        task = PeriodicTask(self, period, callback, label, priority)
        return task.start(first_delay=first_delay)

    def step(self) -> bool:
        """Process exactly one event.  Returns ``False`` if the queue is empty."""
        barrier = self.observation_barrier
        if not self.queue:
            if barrier is not None and barrier.pending:
                barrier.flush()
            return False
        if barrier is not None and barrier.pending:
            # Flush queued observations before any event that is not
            # part of the same same-instant delivery burst, so every
            # later event observes exactly the cache state the scalar
            # path would have built during the deliveries.
            barrier.before_event(*self.queue.peek_entry())
        time, callback, label, slot = self.queue.pop_next()
        self.clock.advance_to(time)
        if slot >= 0:
            # Recycle the transient's slab slot before firing: the
            # callback and label are already in hand, and releasing
            # first keeps the slot from leaking if the callback raises.
            self.queue.release(slot)
        profiler = self.profiler
        if profiler is None:
            callback()
        else:
            started = perf_counter()
            callback()
            profiler.record(label, perf_counter() - started)
        self._events_processed += 1
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire); returns count."""
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        return fired

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run all events with firing time ``<= time``; advance clock to ``time``.

        The clock is left at exactly ``time`` even if the last event fired
        earlier, matching the usual "run for this long" semantics.  When
        ``max_events`` stops the run early, the clock instead stays at
        the last fired event — events due before ``time`` are still
        queued, and jumping past them would make resuming the window
        (``run_until(time)`` again) fire them in the clock's past.
        """
        if time < self.now:
            raise ValueError(f"cannot run until the past ({time} < {self.now})")
        fired = 0
        while True:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > time:
                break
            self.step()
            fired += 1
            if max_events is not None and fired >= max_events:
                # Early cut: leave queued observations pending — they
                # checkpoint with the run and flush on resume, exactly
                # as the uninterrupted run would at its next step.
                return fired
        barrier = self.observation_barrier
        if barrier is not None and barrier.pending:
            # The window closed with deliveries still queued for batch
            # application; apply them before handing control back so
            # top-level readers (queries, digests) see settled caches.
            barrier.flush()
        if self.now < time:
            self.clock.advance_to(time)
        return fired

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self, path, meta: Optional[dict] = None):
        """Freeze the engine (clock, queue, RNG streams, trace, metrics)
        to a checkpoint file; returns the saved :class:`StateDigest`.

        Local import so the engine stays importable without the persist
        subsystem's dependencies loaded.
        """
        from repro.persist import save_checkpoint

        return save_checkpoint(self, path, meta=meta)

    @classmethod
    def restore(cls, path, verify: bool = True) -> "Simulator":
        """Load a simulator previously saved with :meth:`checkpoint`."""
        from repro.persist import load_checkpoint

        obj = load_checkpoint(path, verify=verify)
        if not isinstance(obj, cls):
            raise TypeError(
                f"checkpoint at {path} holds a {type(obj).__name__}, "
                f"expected a {cls.__name__}"
            )
        return obj
