"""Network-wide energy ledger.

Figure 10 characterizes energy consumption over time under regular vs
snapshot queries.  :class:`EnergyLedger` aggregates per-node draws by
activity category (``transmit``, ``receive``, ``cpu``) so experiments
can report not just *who died when*, but *where the energy went* —
the background cost of snapshot maintenance vs the per-query drain.

The cells are a node × category
:class:`~repro.obs.registry.ColumnCounter`: the radio books a burst's
draws as one loop over ids, and each send's transmit draw straight
into its cell (:meth:`EnergyLedger.cells_for`).  When constructed with a
:class:`~repro.obs.registry.MetricsRegistry`, the ledger's counter is
the registry's ``energy.draw`` metric (labels ``node``/``category``,
essential since battery-capacity runs read draws back through radio
accounting), so run reports export the exact numbers the ledger reads.
"""

from __future__ import annotations

from collections import Counter

from repro.obs.registry import ColumnCounter

__all__ = ["EnergyLedger"]


class EnergyLedger:
    """Accumulates energy draws per node and per activity category."""

    CATEGORIES = ("transmit", "receive", "cpu")

    def __init__(self, registry=None) -> None:
        labels = ("node", "category")
        if registry is None:
            self._cells = ColumnCounter(None, "energy.draw", labels, True)
        else:
            self._cells = registry.column_counter("energy.draw", labels, essential=True)
        self._totals: Counter[str] = Counter()

    def record(self, node_id: int, category: str, amount: float) -> None:
        """Charge ``amount`` against ``node_id`` under ``category``."""
        if node_id < 0:
            raise ValueError(f"node ids are non-negative, got {node_id}")
        self.record_each((node_id,), category, amount)

    def cells_for(self, category: str, amount: float, size: int):
        """``(cells, totals)`` for a caller that charges ``amount`` to
        one node at a time under ``category``: ``cells[i] += amount``
        then ``totals[category] += amount`` is :meth:`record` of node
        ``i < size``, its checks made here, once.  ``cells`` is the
        category's column of the node × category counter
        (:meth:`~repro.obs.registry.ColumnCounter.column`)."""
        if category not in self.CATEGORIES or not amount >= 0:
            self._check(category, amount)
        return self._cells.column(category, amount, size), self._totals

    def record_each(self, node_ids, category: str, amount: float) -> None:
        """:meth:`record` ``amount`` for each of ``node_ids``, in order.

        The category total adds the draws one by one, so it sums to the
        same float as one :meth:`record` call per node.
        """
        self._check(category, amount)
        if not node_ids:
            return
        self._cells.add_each(node_ids, category, amount)
        total = self._totals[category]
        for _ in node_ids:
            total += amount
        self._totals[category] = total

    def _check(self, category: str, amount: float) -> None:
        if category not in self.CATEGORIES:
            raise ValueError(
                f"unknown category {category!r}; expected one of {self.CATEGORIES}"
            )
        if not amount >= 0:
            raise ValueError(f"cannot record negative or NaN energy {amount}")

    def total(self, category: str | None = None) -> float:
        """Network-wide energy drawn, optionally for one category."""
        if category is None:
            return sum(self._totals.values())
        if category not in self.CATEGORIES:
            raise ValueError(
                f"unknown category {category!r}; expected one of {self.CATEGORIES}"
            )
        return self._totals.get(category, 0.0)

    def clear(self) -> None:
        """Reset the ledger."""
        self._cells.clear()
        self._totals.clear()
