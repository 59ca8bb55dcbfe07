"""Labeled counters, gauges and histograms with an O(1) record path.

Every quantity the paper's evaluation reports — messages per node
(Figure 15, Table 2), snapshot size over time (Figure 14), coverage
under node death (Figure 10) — is a per-run accumulation.  The
:class:`MetricsRegistry` is the one place those accumulations live:
subsystems record into named metrics at O(1) cost, and the
:class:`~repro.obs.report.RunReport` exporter reads everything back out
without knowing who recorded what.

Two properties drive the design:

* **O(1) record.**  A counter cell is one ``Counter`` increment keyed
  by a small label tuple; a histogram observation is one ``bisect``
  plus two additions.  No locks, no string formatting, no allocation
  beyond the key tuple the caller already holds.
* **Near-zero overhead when disabled.**  Every record method starts
  with a guarded fast path: when the registry is disabled the call
  returns after two attribute loads and a branch.  *Essential* metrics
  — accounting the protocol itself reads back, like
  :class:`~repro.network.stats.MessageStats`'s windowed counters that
  drive Figure 15's per-round costs — opt out of the gate entirely so
  disabling observability can never change simulation behavior.

Example
-------

>>> registry = MetricsRegistry()
>>> sent = registry.counter("demo.sent", labels=("node",))
>>> sent.inc(3)
>>> sent.inc(3)
>>> sent.inc(7, amount=2)
>>> sent.value(3), sent.value(7), sent.total()
(2, 2, 4)
>>> latency = registry.histogram("demo.latency", buckets=(1.0, 10.0))
>>> for sample in (0.5, 3.0, 25.0):
...     latency.observe(sample)
>>> cell = latency.cell()
>>> cell.counts, cell.count, cell.sum
([1, 1, 1], 3, 28.5)

Disabling the registry freezes every non-essential metric:

>>> registry.enabled = False
>>> sent.inc(3)
>>> sent.total()
4
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

__all__ = [
    "MetricsRegistry",
    "CounterMetric",
    "ColumnCounter",
    "GaugeMetric",
    "HistogramMetric",
    "HistogramCell",
]


def _label_dict(label_names: tuple[str, ...], key: Any) -> dict[str, Any]:
    """Map a cell key back to ``{label_name: value}`` for export."""
    if not label_names:
        return {}
    if len(label_names) == 1:
        return {label_names[0]: key}
    return dict(zip(label_names, key))


class _Metric:
    """Shared naming/labeling/gating machinery of all metric types."""

    kind = "metric"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        label_names: tuple[str, ...],
        essential: bool,
    ) -> None:
        self.name = name
        self.label_names = label_names
        #: ``None`` for essential metrics — they record unconditionally,
        #: so turning observability off cannot change protocol behavior.
        self._gate: Optional[MetricsRegistry] = None if essential else registry

    @property
    def essential(self) -> bool:
        """Whether this metric ignores the registry's ``enabled`` flag."""
        return self._gate is None

    def label_values(self, key: Any) -> dict[str, Any]:
        """The ``{label: value}`` mapping a cell key encodes."""
        return _label_dict(self.label_names, key)

    def _check_signature(
        self, label_names: tuple[str, ...], essential: bool, kind: str
    ) -> None:
        if kind != self.kind:
            raise ValueError(
                f"metric {self.name!r} is a {self.kind}, requested as {kind}"
            )
        if label_names != self.label_names:
            raise ValueError(
                f"metric {self.name!r} has labels {self.label_names}, "
                f"requested with {label_names}"
            )
        if essential != self.essential:
            raise ValueError(
                f"metric {self.name!r} has essential={self.essential}, "
                f"requested with essential={essential}"
            )


class CounterMetric(_Metric):
    """A monotonically increasing count, one cell per label key.

    Keys are the label values themselves: a bare value for one label, a
    tuple in declaration order for several, ``()`` for none.  ``cells``
    is a plain :class:`collections.Counter`, so legacy accounting code
    (``MessageStats``) can hold it directly and keep its byte-identical
    read side while the registry exports the same storage.
    """

    kind = "counter"

    def __init__(self, registry, name, label_names, essential) -> None:
        super().__init__(registry, name, label_names, essential)
        self.cells: Counter[Any] = Counter()

    def inc(self, key: Any = (), amount: int | float = 1) -> None:
        """Add ``amount`` to the cell at ``key`` (O(1))."""
        gate = self._gate
        if gate is not None and not gate.enabled:
            return
        self.cells[key] += amount

    def inc_by(self, key: Any, n: int | float) -> None:
        """Add ``n`` to the cell at ``key`` — the bulk spelling of
        :meth:`inc` for batched producers (one call per label key per
        flush instead of one per event)."""
        gate = self._gate
        if gate is not None and not gate.enabled:
            return
        self.cells[key] += n

    def value(self, key: Any = ()) -> int | float:
        """Current count of the cell at ``key`` (0 if never incremented)."""
        return self.cells[key]

    def total(self) -> int | float:
        """Sum over all cells."""
        return sum(self.cells.values())

    def clear(self) -> None:
        """Drop every cell."""
        self.cells.clear()


class ColumnCounter(CounterMetric, Mapping):
    """A counter keyed ``(id, label)``, kept as one list per label, by id.

    Per-node accounting (energy by node and category, deliveries by
    node and kind) is booked a burst of ids at a time by
    :meth:`add_each`.  A cell exists once written, even with 0; an
    unwritten one reads 0, as in a ``Counter``.  The counter is itself
    the mapping of its cells, so ``counter[key] += 1`` works, and
    :attr:`cells` is a ``Counter`` built when read.

    >>> delivered = ColumnCounter(None, "demo.delivered", ("node", "kind"), True)
    >>> delivered.add_each([2, 0, 2], "Heartbeat", 1)
    >>> delivered[(0, "Invitation")] += 1
    >>> delivered.cells
    Counter({(2, 'Heartbeat'): 2, (0, 'Heartbeat'): 1, (0, 'Invitation'): 1})
    """

    def __init__(self, registry, name, label_names, essential) -> None:
        _Metric.__init__(self, registry, name, label_names, essential)
        self._columns: dict[Any, list] = {}  # grown on demand
        self._zeros: set = set()  # cells written with 0

    def add_each(self, ids, label: Any, amount: int | float) -> None:
        """Add ``amount`` to the cell of each of ``ids`` under ``label``,
        in order."""
        gate = self._gate
        if gate is not None and not gate.enabled:
            return
        column = self._columns.setdefault(label, [])
        if not amount:
            self._zeros.update((i, label) for i in ids)
        try:
            for i in ids:
                column[i] += amount
        except IndexError:  # ids from ``rest`` on are not added yet
            rest = ids[next(k for k, i in enumerate(ids) if i >= len(column)):]
            column.extend([0] * (max(rest) + 1 - len(column)))
            for i in rest:
                column[i] += amount

    def column(self, label: Any, amount: int | float, size: int):
        """The cells of ``label`` by id, grown to ``size`` ids, for a
        caller that adds ``amount`` one id at a time: ``column[i] +=
        amount`` is ``add_each((i,), label, amount)`` without its
        per-call work.  A zero amount gets a view that also records
        each cell it writes, since a cell written with 0 exists.

        Writes through it pass no gate, so only essential counters
        hand one out.
        """
        if self._gate is not None:
            raise TypeError(f"{self.name} is gated: book it with add_each")
        column = self._columns.get(label)
        if column is None:
            column = self._columns[label] = []
        if len(column) < size:
            column.extend([0] * (size - len(column)))
        return column if amount else _ZeroColumn(self, label)

    def _items(self) -> Iterator[tuple[tuple[int, Any], int | float]]:
        for label, column in self._columns.items():
            for i, value in enumerate(column):
                if value or (i, label) in self._zeros:
                    yield (i, label), value

    @property
    def cells(self) -> Counter:
        """Every written cell, label by label, ids ascending."""
        return Counter(dict(self._items()))

    def __getitem__(self, key) -> int | float:
        i, label = key
        column = self._columns.get(label)
        return column[i] if column is not None and 0 <= i < len(column) else 0

    def __setitem__(self, key, value: int | float) -> None:
        i, label = key
        if i < 0:
            raise KeyError(f"{self.name}: negative id in {key!r}")
        column = self._columns.setdefault(label, [])
        column.extend([0] * (i + 1 - len(column)))
        column[i] = value
        if not value:
            self._zeros.add(key)

    def __contains__(self, key) -> bool:
        return bool(self[key]) or key in self._zeros

    def get(self, key, default=None):
        return self[key] if key in self else default

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        return (key for key, _ in self._items())

    def __len__(self) -> int:
        return sum(1 for _ in self._items())

    def inc(self, key: Any = (), amount: int | float = 1) -> None:
        """Add ``amount`` to the cell at ``key``."""
        gate = self._gate
        if gate is None or gate.enabled:
            self[key] += amount

    inc_by = inc

    def clear(self) -> None:
        """Drop every cell."""
        self._columns.clear()
        self._zeros.clear()


class _ZeroColumn:
    """:meth:`ColumnCounter.column` for a zero amount: each write goes
    through the counter's mapping, which records the cell."""

    __slots__ = ("_counter", "_label")

    def __init__(self, counter: ColumnCounter, label: Any) -> None:
        self._counter, self._label = counter, label

    def __getitem__(self, i: int) -> int | float:
        return self._counter[(i, self._label)]

    def __setitem__(self, i: int, value: int | float) -> None:
        self._counter[(i, self._label)] = value


class GaugeMetric(_Metric):
    """A point-in-time value, one cell per label key."""

    kind = "gauge"

    def __init__(self, registry, name, label_names, essential) -> None:
        super().__init__(registry, name, label_names, essential)
        self.cells: dict[Any, float] = {}

    def set(self, value: float, key: Any = ()) -> None:
        """Record the current value of the cell at ``key``."""
        gate = self._gate
        if gate is not None and not gate.enabled:
            return
        self.cells[key] = value

    def value(self, key: Any = ()) -> Optional[float]:
        """Last recorded value at ``key``, or ``None`` if never set."""
        return self.cells.get(key)

    def clear(self) -> None:
        """Drop every cell."""
        self.cells.clear()


@dataclass
class HistogramCell:
    """One label key's bucket counts.

    ``counts[i]`` holds observations ``<= uppers[i]``; the final slot is
    the overflow bucket for values above the last upper bound.  The
    invariant ``sum(counts) == count`` holds after every observation
    (property-tested in ``tests/obs``).
    """

    counts: list[int]
    count: int = 0
    sum: float = 0.0

    @property
    def mean(self) -> float:
        """Average observed value (0 for an empty cell)."""
        return self.sum / self.count if self.count else 0.0


class HistogramMetric(_Metric):
    """Fixed-bucket histogram; buckets are shared by every label key."""

    kind = "histogram"

    def __init__(self, registry, name, label_names, essential, buckets) -> None:
        super().__init__(registry, name, label_names, essential)
        uppers = tuple(float(b) for b in buckets)
        if not uppers:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if any(b >= a for b, a in zip(uppers, uppers[1:])):
            raise ValueError(
                f"histogram {name!r} buckets must be strictly increasing: {uppers}"
            )
        self.uppers = uppers
        self.cells: dict[Any, HistogramCell] = {}

    def observe(self, value: float, key: Any = ()) -> None:
        """Record one observation at ``key`` (O(log #buckets))."""
        cell = self.open_cell(key)
        if cell is None:
            return
        cell.counts[bisect_left(self.uppers, value)] += 1
        cell.count += 1
        cell.sum += value

    def open_cell(self, key: Any = ()) -> Optional[HistogramCell]:
        """The cell at ``key`` for a caller that books observations into
        it directly, as :meth:`observe` does (bucket count, ``count``,
        ``sum``), created if new; ``None`` while the gate is closed."""
        gate = self._gate
        if gate is not None and not gate.enabled:
            return None
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = HistogramCell([0] * (len(self.uppers) + 1))
        return cell

    def cell(self, key: Any = ()) -> HistogramCell:
        """The cell at ``key`` (an empty cell if nothing was observed)."""
        existing = self.cells.get(key)
        if existing is not None:
            return existing
        return HistogramCell([0] * (len(self.uppers) + 1))

    def quantile(self, q: float, key: Any = ()) -> float:
        """Estimate the ``q``-quantile of the cell at ``key``.

        Linear interpolation within the bucket holding the target rank,
        assuming non-negative observations (bucket 0 spans ``[0,
        uppers[0]]``) — the shape of every latency/size histogram the
        serving layer reports p50/p99 from.  Observations in the
        overflow bucket are clamped to the last finite bound, so the
        estimate is a lower bound there.  An empty cell estimates 0.

        >>> registry = MetricsRegistry()
        >>> h = registry.histogram("q.demo", buckets=(1.0, 2.0, 4.0))
        >>> for sample in (0.5, 1.5, 1.5, 3.0):
        ...     h.observe(sample)
        >>> h.quantile(0.5)
        1.5
        >>> h.quantile(1.0)
        4.0
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        cell = self.cells.get(key)
        if cell is None or cell.count == 0:
            return 0.0
        rank = q * cell.count
        seen = 0.0
        lower = 0.0
        for upper, count in zip(self.uppers, cell.counts):
            if count and seen + count >= rank:
                fraction = (rank - seen) / count
                return lower + fraction * (upper - lower)
            seen += count
            lower = upper
        return self.uppers[-1]

    def merged(self) -> HistogramCell:
        """All cells folded into one (for whole-run summaries)."""
        merged = HistogramCell([0] * (len(self.uppers) + 1))
        for cell in self.cells.values():
            for index, count in enumerate(cell.counts):
                merged.counts[index] += count
            merged.count += cell.count
            merged.sum += cell.sum
        return merged

    def clear(self) -> None:
        """Drop every cell."""
        self.cells.clear()


@dataclass
class MetricsRegistry:
    """Named metrics with get-or-create registration.

    Parameters
    ----------
    enabled:
        Gates every non-essential metric's record path.  Flipping it at
        runtime is allowed (a run can enable observability only for a
        phase of interest); essential metrics are unaffected.
    """

    enabled: bool = True
    _metrics: dict[str, _Metric] = field(default_factory=dict, repr=False)

    # -- registration ------------------------------------------------------

    def counter(
        self,
        name: str,
        labels: Sequence[str] = (),
        essential: bool = False,
    ) -> CounterMetric:
        """Get or create the counter ``name`` (labels must match)."""
        return self._get_or_create(CounterMetric, name, labels, essential)

    def column_counter(
        self,
        name: str,
        labels: Sequence[str],
        essential: bool = False,
    ) -> ColumnCounter:
        """Get or create the :class:`ColumnCounter` ``name``."""
        counter = self._get_or_create(ColumnCounter, name, labels, essential)
        if not isinstance(counter, ColumnCounter):
            raise ValueError(f"counter {name!r} exists without columns")
        return counter

    def gauge(
        self,
        name: str,
        labels: Sequence[str] = (),
        essential: bool = False,
    ) -> GaugeMetric:
        """Get or create the gauge ``name``."""
        return self._get_or_create(GaugeMetric, name, labels, essential)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float],
        labels: Sequence[str] = (),
        essential: bool = False,
    ) -> HistogramMetric:
        """Get or create the histogram ``name`` (buckets must match)."""
        label_names = tuple(labels)
        existing = self._metrics.get(name)
        if existing is not None:
            existing._check_signature(label_names, essential, "histogram")
            assert isinstance(existing, HistogramMetric)
            if existing.uppers != tuple(float(b) for b in buckets):
                raise ValueError(
                    f"histogram {name!r} has buckets {existing.uppers}, "
                    f"requested with {tuple(buckets)}"
                )
            return existing
        metric = HistogramMetric(self, name, label_names, essential, buckets)
        self._metrics[name] = metric
        return metric

    def _get_or_create(self, cls, name, labels, essential):
        label_names = tuple(labels)
        existing = self._metrics.get(name)
        if existing is not None:
            existing._check_signature(label_names, essential, cls.kind)
            return existing
        metric = cls(self, name, label_names, essential)
        self._metrics[name] = metric
        return metric

    # -- read side ---------------------------------------------------------

    def metric(self, name: str) -> _Metric:
        """The registered metric called ``name`` (KeyError if absent)."""
        return self._metrics[name]

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def rows(self) -> Iterator[dict[str, Any]]:
        """Flat export rows, one per cell, in sorted metric/key order.

        Counters and gauges yield ``{"record", "name", "labels",
        "value"}``; histograms add ``"uppers"``, ``"counts"``,
        ``"count"`` and ``"sum"``.  This is the exact line schema of
        :meth:`~repro.obs.report.RunReport.to_jsonl`.
        """
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            cells = sorted(metric.cells.items(), key=lambda item: repr(item[0]))
            if isinstance(metric, HistogramMetric):
                for key, cell in cells:
                    yield {
                        "record": "histogram",
                        "name": name,
                        "labels": metric.label_values(key),
                        "uppers": list(metric.uppers),
                        "counts": list(cell.counts),
                        "count": cell.count,
                        "sum": cell.sum,
                    }
            else:
                record = metric.kind
                for key, value in cells:
                    yield {
                        "record": record,
                        "name": name,
                        "labels": metric.label_values(key),
                        "value": value,
                    }
