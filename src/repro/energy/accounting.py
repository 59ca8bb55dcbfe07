"""Network-wide energy ledger.

Figure 10 characterizes energy consumption over time under regular vs
snapshot queries.  :class:`EnergyLedger` aggregates per-node draws by
activity category (``transmit``, ``receive``, ``cpu``) so experiments
can report not just *who died when*, but *where the energy went* —
the background cost of snapshot maintenance vs the per-query drain.

The cells are a node × category
:class:`~repro.obs.registry.ColumnCounter`: the radio books a burst's
draws as one loop over ids.  When constructed with a
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

    def record_each(self, node_ids, category: str, amount: float) -> None:
        """:meth:`record` ``amount`` for each of ``node_ids``, in order.

        The category total adds the draws one by one, so it sums to the
        same float as one :meth:`record` call per node.
        """
        if category not in self.CATEGORIES:
            raise ValueError(
                f"unknown category {category!r}; expected one of {self.CATEGORIES}"
            )
        if amount < 0:
            raise ValueError(f"cannot record negative energy {amount}")
        if not node_ids:
            return
        self._cells.add_each(node_ids, category, amount)
        total = self._totals[category]
        for _ in node_ids:
            total += amount
        self._totals[category] = total

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
