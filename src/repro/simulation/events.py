"""Event primitives for the discrete-event simulator.

The simulator used throughout this reproduction is a classic
priority-queue driven discrete-event engine.  An :class:`Event` couples a
firing time with an arbitrary callback; :class:`EventQueue` keeps events
ordered by ``(time, priority, sequence)`` so that simultaneous events fire
in a deterministic order (insertion order within the same priority).

Determinism matters here: the paper's experiments are averages over ten
repetitions of a randomized protocol, and reproducing its figures requires
that a given seed always yields the same trajectory.

Every heap entry is ``(time, priority, seq, event)``: the unique ``seq``
guarantees the :class:`Event` never enters a comparison.  Cancellation
is a flag on the handle; cancelled entries stay in the heap until they
reach its head, where :meth:`EventQueue.peek` and :meth:`EventQueue.pop`
drop them.  Liveness is always read from the handles, so no counter can
drift from what the heap holds.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["Event", "EventQueue"]


@dataclass(order=False, slots=True)
class Event:
    """A scheduled occurrence in simulated time.

    Parameters
    ----------
    time:
        Simulated time at which the event fires.  Time is a float; the
        paper measures everything in abstract "time units".
    callback:
        Zero-argument callable invoked when the event fires.
    priority:
        Ties in ``time`` are broken by ascending priority.  Lower numbers
        fire first.  Protocol phases use this to order, e.g., message
        deliveries before timer expirations scheduled at the same instant.
    label:
        Free-form tag used by tracing and tests.
    """

    time: float
    callback: Callable[[], None]
    priority: int = 0
    label: str = ""
    _cancelled: bool = field(default=False, repr=False)
    _queued: bool = field(default=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it when it reaches the head."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled


class EventQueue:
    """A deterministic priority queue of scheduled :class:`Event` handles.

    Entries are ordered by ``(time, priority, insertion sequence)``.  The
    insertion sequence guarantees FIFO behaviour among otherwise equal
    entries, which keeps simulations reproducible across runs.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return sum(not entry[3]._cancelled for entry in self._heap)

    def __bool__(self) -> bool:
        return self.peek() is not None

    def push(self, event: Event) -> Event:
        """Schedule ``event`` and return it (for later cancellation)."""
        if not event.time >= 0:  # NaN fails too
            raise ValueError(f"cannot schedule event at time {event.time}")
        heapq.heappush(
            self._heap, (event.time, event.priority, next(self._counter), event)
        )
        event._queued = True
        return event

    def peek(self) -> Optional[tuple[float, int]]:
        """``(time, priority)`` of the next live event, or ``None`` if empty.

        The observation barrier (see :meth:`Simulator.step`) needs the
        priority as well as the time to decide whether the upcoming
        event continues the current same-instant delivery burst.
        """
        heap = self._heap
        while heap:
            time, priority, __, event = heap[0]
            if not event._cancelled:
                return time, priority
            heapq.heappop(heap)
            event._queued = False
        return None

    def pop(self) -> Event:
        """Remove and return the next live event.

        Raises
        ------
        IndexError
            If the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            event._queued = False
            if not event._cancelled:
                return event
        raise IndexError("pop from empty event queue")

    def clear(self) -> None:
        """Drop every queued event, marking each dequeued."""
        for entry in self._heap:
            entry[3]._queued = False
        self._heap.clear()
