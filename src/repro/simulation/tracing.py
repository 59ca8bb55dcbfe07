"""Lightweight tracing and counters for simulations.

The experiment harness needs to know *what happened* during a run —
how many messages of each type were sent, how many elections completed,
when nodes died — without the protocol code knowing anything about
reporting.  :class:`TraceLog` is a pub/sub sink: components ``emit``
named records, observers subscribe by name, and counters accumulate for
free.

Subscriptions have *identity* semantics: each :meth:`TraceLog.subscribe`
call creates an independent registration with its own delivery counter,
and cancelling one never detaches another registration that happens to
wrap an equal callback.  Harness code that re-subscribes the same
observer across repetitions therefore gets independent counts per
repetition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = ["TraceRecord", "TraceLog", "TraceSubscription"]


@dataclass(frozen=True)
class TraceRecord:
    """A single trace entry.

    Attributes
    ----------
    time:
        Simulated time of the emission.
    kind:
        Record category, e.g. ``"message.sent"`` or ``"node.died"``.
    payload:
        Arbitrary structured detail attached by the emitter.
    """

    time: float
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)


class TraceSubscription:
    """Handle returned by :meth:`TraceLog.subscribe`; ``cancel`` detaches.

    Cancelling is idempotent, so observers that may be torn down from
    several paths (a checker's ``close`` plus a test's teardown) can
    cancel unconditionally.  ``deliveries`` counts the records this
    registration — and only this registration — has received, so a
    subscriber re-attached for a second harness repetition starts from
    zero instead of inheriting the previous run's count.
    """

    def __init__(
        self, log: "TraceLog", kind: str, callback: Callable[[TraceRecord], None]
    ) -> None:
        self._log = log
        self.kind = kind
        self.callback = callback
        self.deliveries = 0
        self._active = True

    @property
    def active(self) -> bool:
        """Whether the subscription still receives records."""
        return self._active

    def _deliver(self, record: TraceRecord) -> None:
        self.deliveries += 1
        self.callback(record)

    def cancel(self) -> None:
        """Stop receiving records; safe to call more than once."""
        if self._active:
            self._active = False
            self._log._remove(self)


class TraceLog:
    """Collects :class:`TraceRecord` entries and dispatches to subscribers.

    Recording full records is optional (``keep_records=False`` keeps only
    the per-kind counters) so long experiments do not hold the entire
    history in memory.
    """

    def __init__(self, keep_records: bool = True) -> None:
        self.keep_records = keep_records
        self.records: list[TraceRecord] = []
        self.counts: Counter[str] = Counter()
        # Subscribers are stored as immutable tuples of subscription
        # objects so ``emit`` can iterate a stable snapshot: a callback
        # that subscribes or unsubscribes during dispatch replaces the
        # tuple and only affects later emissions, never the in-flight
        # one.  Removal is by subscription *identity* — two
        # registrations of an equal callback are distinct, so cancelling
        # one cannot silently detach (or double-count against) the
        # other.
        self._subscribers: dict[str, tuple[TraceSubscription, ...]] = {}

    def emit(self, time: float, kind: str, **payload: Any) -> None:
        """Record an occurrence of ``kind`` at ``time``.

        The record object is built only when it is stored or some
        subscription of ``kind`` receives it; otherwise only the
        counter moves.
        """
        self.emit_many(time, kind, 1, (payload,))

    def builds(self, kind: str) -> bool:
        """Whether :meth:`emit` builds a record of ``kind`` (stored or
        subscribed); when it does not, ``counts[kind] += 1`` is all an
        emission does."""
        return self.keep_records or kind in self._subscribers

    def emit_many(
        self, time: float, kind: str, count: int, payloads: Iterable[dict[str, Any]]
    ) -> None:
        """Record ``count`` occurrences of ``kind`` at ``time`` in one call.

        ``payloads`` yields the ``count`` payload dicts in order.
        Records are built — and ``payloads`` consumed — only when they
        are stored or some subscription of ``kind`` receives them;
        otherwise only the counter moves, by ``count``.  Subscribers
        registered by a callback take effect from the next call.
        """
        if count <= 0:
            return
        self.counts[kind] += count
        subscribers = self._subscribers.get(kind)
        if not (self.keep_records or subscribers):
            return
        for payload in payloads:
            record = TraceRecord(time=time, kind=kind, payload=payload)
            if self.keep_records:
                self.records.append(record)
            for subscription in subscribers or ():
                subscription._deliver(record)

    def subscribe(
        self, kind: str, callback: Callable[[TraceRecord], None]
    ) -> TraceSubscription:
        """Invoke ``callback`` for every future record of ``kind``.

        Returns a :class:`TraceSubscription` whose ``cancel`` detaches
        the callback again — long-lived runtimes shared by repeated
        harness runs must cancel their observers or the closures (and
        everything they capture) accumulate forever.
        """
        subscription = TraceSubscription(self, kind, callback)
        self._subscribers[kind] = self._subscribers.get(kind, ()) + (subscription,)
        return subscription

    def _remove(self, subscription: TraceSubscription) -> None:
        current = self._subscribers.get(subscription.kind)
        if not current:
            return
        remaining = tuple(s for s in current if s is not subscription)
        if remaining:
            self._subscribers[subscription.kind] = remaining
        else:
            del self._subscribers[subscription.kind]

    def count(self, kind: str) -> int:
        """Number of records of ``kind`` emitted so far."""
        return self.counts[kind]

    def of_kind(self, kind: str) -> list[TraceRecord]:
        """All stored records of ``kind`` (empty if ``keep_records=False``)."""
        return [record for record in self.records if record.kind == kind]

    def clear(self) -> None:
        """Drop all stored records and counters (subscribers survive)."""
        self.records.clear()
        self.counts.clear()
