"""The discrete-event simulation engine.

:class:`Simulator` glues the event queue, simulated time, RNG source
and trace log together and exposes the scheduling API the rest of the
reproduction is written against:

* ``schedule(delay, callback)`` / ``schedule_at(time, callback)``;
* ``every(period, callback)`` for periodic tasks (heartbeats, snapshot
  maintenance rounds, §5.1 of the paper);
* ``run()`` / ``run_until(t)`` / ``step()`` drivers.

Every scheduled occurrence, message deliveries included, is an
:class:`~repro.simulation.events.Event` handle, and :meth:`EventQueue.pop`
is the one way an event leaves the queue.  Cancelling sets the handle's
flag (``Simulator.cancel(event)`` and ``event.cancel()`` are the same
operation); the queue reads liveness from the handles.

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
        if not period > 0:  # NaN fails too
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
        #: Current simulated time.  Only :meth:`step` and
        #: :meth:`run_until` move it, and never backwards:
        #: :meth:`schedule` and :meth:`schedule_at` refuse a time
        #: before it, and every check refuses NaN.
        self.now = 0.0
        self.queue = EventQueue()
        self.random = RandomSource(seed)
        self.trace = TraceLog(keep_records=keep_trace_records)
        self.metrics = MetricsRegistry(enabled=metrics_enabled)
        self.spans = SpanTracer(self.trace, self, self.metrics)
        #: Wall-clock profiler; ``None`` keeps the hot loop untouched.
        self.profiler: Optional[EventProfiler] = None
        self._events_processed = 0

    def enable_profiling(self) -> EventProfiler:
        """Attach (or return) the wall-clock event profiler."""
        if self.profiler is None:
            self.profiler = EventProfiler()
        return self.profiler

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
        """Schedule ``callback`` to fire ``delay`` time units from now.

        The event is pushed here, not through :meth:`schedule_at`: every
        message delivery and protocol timer comes this way.
        """
        if not delay >= 0:  # NaN fails too
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.queue.push(Event(self.now + delay, callback, priority, label))

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        label: str = "",
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` to fire at absolute time ``time``."""
        if not time >= self.now:  # NaN fails too
            raise ValueError(f"cannot schedule at {time}: before now ({self.now}) or NaN")
        event = Event(time=time, callback=callback, label=label, priority=priority)
        return self.queue.push(event)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (same as ``event.cancel()``)."""
        event.cancel()

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
        try:
            event = self.queue.pop()
        except IndexError:
            return False
        # No check: scheduling refused every time before ``now`` or NaN.
        self.now = float(event.time)
        profiler = self.profiler
        if profiler is None:
            event.callback()
        else:
            started = perf_counter()
            event.callback()
            profiler.record(event.label, perf_counter() - started)
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
        """Run all events with firing time ``<= time``; advance ``now`` to ``time``.

        ``now`` is left at exactly ``time`` even if the last event fired
        earlier, matching the usual "run for this long" semantics.  When
        ``max_events`` stops the run early, ``now`` instead stays at
        the last fired event — events due before ``time`` are still
        queued, and jumping past them would make resuming the window
        (``run_until(time)`` again) fire them in the past.
        """
        if not time >= self.now:  # NaN fails too
            raise ValueError(f"cannot run until {time}: before now ({self.now}) or NaN")
        fired = 0
        while True:
            head = self.queue.peek()
            if head is None or head[0] > time:
                break
            self.step()
            fired += 1
            if max_events is not None and fired >= max_events:
                return fired
        self.now = float(time)
        return fired

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self, path, meta: Optional[dict] = None):
        """Freeze the engine (time, queue, RNG streams, trace, metrics)
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
