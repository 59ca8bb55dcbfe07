"""Common interface of cache-management policies.

Two policies implement it: the paper's model-aware manager
(:class:`~repro.models.cache_manager.ModelAwareCache`) and the
round-robin/FIFO baseline it is compared against in Figure 8
(:class:`~repro.models.round_robin.RoundRobinCache`).

A policy owns the whole per-node cache — all cache lines — under a
fixed byte budget.  The round-robin baseline stores
:class:`~repro.models.cache.CacheLine` objects; the model-aware manager
is a lane of the struct-of-arrays engine in :mod:`repro.models.soa`,
the one §4 engine in the program.  Each exposes:

* ``observe(j, x_i, x_j)`` — offer a fresh synchronized observation;
  the policy decides admission/eviction and reports the action taken;
* ``model(j)`` / ``estimate(j, x_i)`` — the current model for neighbor
  ``j`` and the estimate ``x̂_j`` it yields.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.models.cache import CacheLine, pairs_for_budget
from repro.models.regression import LinearModel

__all__ = ["CachePolicy", "Action"]


class Action:
    """Outcomes of :meth:`CachePolicy.observe` (for tests and traces)."""

    APPEND = "append"       #: cache not full; stored directly
    SHIFT = "shift"         #: replaced the line's own oldest pair
    AUGMENT = "augment"     #: grew the line, evicting from another line
    REJECT = "reject"       #: new observation discarded
    NEWCOMER = "newcomer"   #: first pair for this neighbor; round-robin victim

    ALL = (APPEND, SHIFT, AUGMENT, REJECT, NEWCOMER)


class CachePolicy(abc.ABC):
    """A byte-budgeted collection of per-neighbor cache lines.

    A policy stores its lines as it likes; the shared read side (models,
    estimates, the digest) goes through :meth:`line`.

    Parameters
    ----------
    cache_bytes:
        Total budget; the paper sweeps 200 bytes – 4 KB (Figure 8) and
        defaults to 2,048 bytes elsewhere.
    """

    def __init__(self, cache_bytes: int) -> None:
        self.cache_bytes = int(cache_bytes)
        self.capacity_pairs = pairs_for_budget(self.cache_bytes)

    # -- read side ---------------------------------------------------------------

    @property
    @abc.abstractmethod
    def total_pairs(self) -> int:
        """Pairs currently stored across all lines (O(1))."""

    @property
    def is_full(self) -> bool:
        """Whether the budget is exhausted."""
        return self.total_pairs >= self.capacity_pairs

    @abc.abstractmethod
    def known_neighbors(self) -> list[int]:
        """Neighbors with at least one stored pair, ascending id."""

    @abc.abstractmethod
    def line(self, neighbor_id: int) -> Optional[CacheLine]:
        """The cache line for ``neighbor_id``, or ``None``."""

    def model(self, neighbor_id: int) -> Optional[LinearModel]:
        """Current model for ``neighbor_id``, or ``None`` if no history."""
        line = self.line(neighbor_id)
        if line is None or len(line) == 0:
            return None
        return line.model()

    def estimate(self, neighbor_id: int, own_value: float) -> Optional[float]:
        """Estimate ``x̂_j`` from our measurement, or ``None`` if unmodeled."""
        model = self.model(neighbor_id)
        if model is None:
            return None
        return model.predict(own_value)

    def digest_state(self) -> tuple:
        """The policy's canonical state for digests and equivalence tests.

        Covers exactly what determines future decisions: the budget,
        the stored pairs and the live sufficient sums (including any
        subtraction drift — two caches only behave identically if their
        *sums* match bit-for-bit, not just their pairs) plus each
        line's resync countdown.  Derived memo caches (fit / benefit /
        penalty values and their bookkeeping) are deliberately omitted:
        they are pure functions of this state, so backing-store
        representations that memoize differently digest equal when —
        and only when — they will behave identically.

        Subclasses with extra decision state (round-robin cursors,
        insertion orders) must append it via their override.
        """
        lines = {}
        for j in self.known_neighbors():
            line = self.line(j)
            st = line.stats
            lines[j] = (
                j,
                tuple(line.pairs),
                (st.n, st.sum_x, st.sum_y, st.sum_xx, st.sum_xy, st.sum_yy),
                line.evictions_since_sync,
            )
        return (
            type(self).__qualname__,
            self.cache_bytes,
            self.total_pairs,
            lines,
        )

    # -- write side ------------------------------------------------------------

    @abc.abstractmethod
    def observe(self, neighbor_id: int, own_value: float, neighbor_value: float) -> str:
        """Offer a synchronized observation; returns the :class:`Action` taken."""
