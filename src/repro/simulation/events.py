"""Event primitives for the discrete-event simulator.

The simulator used throughout this reproduction is a classic
priority-queue driven discrete-event engine.  An :class:`Event` couples a
firing time with an arbitrary callback; :class:`EventQueue` keeps events
ordered by ``(time, priority, sequence)`` so that simultaneous events fire
in a deterministic order (insertion order within the same priority).

Determinism matters here: the paper's experiments are averages over ten
repetitions of a randomized protocol, and reproducing its figures requires
that a given seed always yields the same trajectory.

Two kinds of entries share the queue:

* **Event-backed** — the full :class:`Event` handle with cancellation
  support, for anything a caller may hold on to (timers, periodic
  tasks);
* **transient** — fire-and-forget occurrences (the vast majority:
  message deliveries) stored in an array-backed *slab* of parallel
  columns with slots recycled through a free-list, so the hot loop
  allocates no per-event object at all.  Transients cannot be
  cancelled; that is what makes the handle unnecessary.

Both kinds order identically — the heap entry is ``(time, priority,
seq, tail)`` where ``tail`` is the :class:`Event` or the ``int`` slab
slot, and the unique ``seq`` guarantees the tail never enters a
comparison — so mixing them preserves the global firing order exactly.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
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
        """Mark the event so the queue skips it when popped."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

class EventQueue:
    """A deterministic priority queue of scheduled occurrences.

    Entries are ordered by ``(time, priority, insertion sequence)``.  The
    insertion sequence guarantees FIFO behaviour among otherwise equal
    entries, which keeps simulations reproducible across runs.

    Besides full :class:`Event` objects (:meth:`push`), the queue holds
    *transient* entries (:meth:`push_transient`): uncancellable
    fire-and-forget callbacks whose time, priority, callback and label
    live in parallel slab columns indexed by an ``int`` slot carried in
    the heap entry.  Slots return to a free-list via :meth:`release`
    after firing, so steady-state transient traffic performs zero
    per-event allocation.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, "Event | int"]] = []
        self._counter = itertools.count()
        self._live = 0
        # The transient slab: parallel columns indexed by slot.
        self._slab_time = array("d")
        self._slab_priority = array("q")
        self._slab_callback: list[Optional[Callable[[], None]]] = []
        self._slab_label: list[str] = []
        self._free: list[int] = []

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> Event:
        """Schedule ``event`` and return it (for later cancellation)."""
        if event.time < 0:
            raise ValueError(f"cannot schedule event at negative time {event.time}")
        heapq.heappush(
            self._heap, (event.time, event.priority, next(self._counter), event)
        )
        event._queued = True
        self._live += 1
        return event

    def push_transient(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> None:
        """Schedule a fire-and-forget occurrence; no handle, no cancellation.

        Orders exactly like an :meth:`push`-ed event with the same
        ``(time, priority)`` — both draw from the one sequence counter —
        but costs a slab slot instead of an :class:`Event` allocation.
        """
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        if self._free:
            slot = self._free.pop()
            self._slab_time[slot] = time
            self._slab_priority[slot] = priority
            self._slab_callback[slot] = callback
            self._slab_label[slot] = label
        else:
            slot = len(self._slab_callback)
            self._slab_time.append(time)
            self._slab_priority.append(priority)
            self._slab_callback.append(callback)
            self._slab_label.append(label)
        heapq.heappush(self._heap, (time, priority, next(self._counter), slot))
        self._live += 1

    def release(self, slot: int) -> None:
        """Recycle a transient's slab slot after its callback was consumed."""
        self._slab_callback[slot] = None  # drop the reference promptly
        self._free.append(slot)

    def cancel(self, event: Event) -> None:
        """Cancel a queued event; it will be skipped when reached.

        Cancelling an event that already fired (e.g. a periodic task
        stopping itself from inside its own callback) is a no-op for
        the live counter — only events still in the heap count.
        """
        if not event.cancelled:
            event.cancel()
            if event._queued:
                self._live -= 1

    def peek_time(self) -> Optional[float]:
        """Firing time of the next live event, or ``None`` if empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def peek_entry(self) -> Optional[tuple[float, int]]:
        """``(time, priority)`` of the next live event, or ``None`` if empty.

        The observation barrier (see :meth:`Simulator.step`) needs the
        priority as well as the time to decide whether the upcoming
        event continues the current same-instant delivery burst.
        """
        self._drop_cancelled()
        if not self._heap:
            return None
        head = self._heap[0]
        return head[0], head[1]

    def pop(self) -> Event:
        """Remove and return the next live event.

        A transient at the head is materialized into a throwaway
        :class:`Event` (and its slot recycled) so existing callers see
        a uniform interface; the allocation-free path is
        :meth:`pop_next`.

        Raises
        ------
        IndexError
            If the queue holds no live events.
        """
        self._drop_cancelled()
        if not self._heap:
            raise IndexError("pop from empty event queue")
        time, priority, __, tail = heapq.heappop(self._heap)
        self._live -= 1
        if type(tail) is int:
            event = Event(
                time=time,
                callback=self._slab_callback[tail],
                priority=priority,
                label=self._slab_label[tail],
            )
            self.release(tail)
            return event
        tail._queued = False
        return tail

    def pop_next(self) -> tuple[float, Callable[[], None], str, int]:
        """Remove the next live entry as ``(time, callback, label, slot)``.

        The uniform hot-loop accessor: ``slot`` is ``-1`` for
        Event-backed entries and the slab slot for transients — the
        caller must :meth:`release` non-negative slots once done with
        the callback and label.

        Raises
        ------
        IndexError
            If the queue holds no live events.
        """
        self._drop_cancelled()
        if not self._heap:
            raise IndexError("pop from empty event queue")
        time, __, __, tail = heapq.heappop(self._heap)
        self._live -= 1
        if type(tail) is int:
            return time, self._slab_callback[tail], self._slab_label[tail], tail
        tail._queued = False
        return time, tail.callback, tail.label, -1

    def clear(self) -> None:
        """Drop every queued event.

        Dropped events are marked dequeued so a later :meth:`cancel` on
        one is a no-op for the live counter instead of driving it
        negative (which would corrupt ``__len__``/``__bool__``).  The
        transient slab is reset wholesale.
        """
        for __, __, __, tail in self._heap:
            if type(tail) is not int:
                tail._queued = False
        self._heap.clear()
        self._live = 0
        self._slab_time = array("d")
        self._slab_priority = array("q")
        self._slab_callback.clear()
        self._slab_label.clear()
        self._free.clear()

    def _drop_cancelled(self) -> None:
        # Transients (int tails) cannot be cancelled, so only
        # Event-backed heads can need dropping.
        heap = self._heap
        while heap:
            tail = heap[0][3]
            if type(tail) is int or not tail.cancelled:
                return
            heapq.heappop(heap)
            tail._queued = False
