"""Wall-clock profiling of the discrete-event hot loop.

The simulator fires millions of events per experiment; knowing *which
handlers* the wall time goes to is what every perf PR needs before
touching code.  :class:`EventProfiler` accumulates per-event-kind
cumulative wall time and counts — the *kind* is an event label's prefix
up to the first ``:`` (so ``deliver:Heartbeat`` and
``deliver:Invitation`` both accumulate under ``deliver``, while the
full label is kept for the top-K hot-handler view).

The profiler is off by default: the engine only wraps event firing in
``perf_counter`` calls when one is attached
(:meth:`~repro.simulation.engine.Simulator.enable_profiling`), so the
un-profiled hot loop is untouched.

Example
-------

>>> profiler = EventProfiler()
>>> profiler.record("deliver:Heartbeat", 0.25)
>>> profiler.record("deliver:Invitation", 0.50)
>>> profiler.record("election:invite", 0.125)
>>> [(kind, entry.seconds) for kind, entry in profiler.by_kind()]
[('deliver', 0.75), ('election', 0.125)]
>>> profiler.top(1)[0].label
'deliver:Invitation'
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EventProfiler", "ProfileEntry"]


@dataclass
class ProfileEntry:
    """Cumulative wall time of one label or kind."""

    label: str
    seconds: float = 0.0
    events: int = 0


def kind_of(label: str) -> str:
    """An event label's kind: the prefix before the first ``:``."""
    if not label:
        return "(unlabeled)"
    head, _, _ = label.partition(":")
    return head


class EventProfiler:
    """Accumulates wall time per event label and per event kind."""

    def __init__(self) -> None:
        self._by_label: dict[str, ProfileEntry] = {}
        self._by_kind: dict[str, ProfileEntry] = {}

    def record(self, label: str, seconds: float) -> None:
        """Charge ``seconds`` of wall time to ``label`` (O(1))."""
        entry = self._by_label.get(label)
        if entry is None:
            entry = self._by_label[label] = ProfileEntry(label)
        entry.seconds += seconds
        entry.events += 1
        kind = kind_of(label)
        entry = self._by_kind.get(kind)
        if entry is None:
            entry = self._by_kind[kind] = ProfileEntry(kind)
        entry.seconds += seconds
        entry.events += 1

    # -- read side ---------------------------------------------------------

    def total_seconds(self) -> float:
        """Wall time spent inside event handlers so far."""
        return sum(entry.seconds for entry in self._by_kind.values())

    def by_kind(self) -> list[tuple[str, ProfileEntry]]:
        """Per-kind entries, hottest first (ties by name)."""
        return sorted(
            self._by_kind.items(), key=lambda item: (-item[1].seconds, item[0])
        )

    def top(self, k: int = 10) -> list[ProfileEntry]:
        """The ``k`` hottest individual handlers (full labels)."""
        ranked = sorted(
            self._by_label.values(), key=lambda entry: (-entry.seconds, entry.label)
        )
        return ranked[:k]

    def format_table(self, k: int = 10) -> str:
        """A human-readable hot-handler table."""
        total = self.total_seconds()
        lines = ["event kind         cum secs      events    share"]
        for kind, entry in self.by_kind():
            share = entry.seconds / total if total else 0.0
            lines.append(
                f"{kind:<18} {entry.seconds:9.4f} {entry.events:>11,} {share:>7.1%}"
            )
        lines.append(f"top {k} handlers:")
        for entry in self.top(k):
            lines.append(
                f"  {entry.label:<24} {entry.seconds:9.4f}s over {entry.events:,} events"
            )
        return "\n".join(lines)

    def rows(self) -> list[dict]:
        """Export rows for the run report (per-kind cumulative times)."""
        return [
            {
                "record": "profile",
                "kind": kind,
                "seconds": entry.seconds,
                "events": entry.events,
            }
            for kind, entry in self.by_kind()
        ]

    def clear(self) -> None:
        """Reset all accumulated timings."""
        self._by_label.clear()
        self._by_kind.clear()
