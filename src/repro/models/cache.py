"""Cache lines: the per-neighbor observation history (§4).

A node's cache is a set of *cache lines*, one per neighbor it has heard
from.  The cache line for neighbor ``N_j`` is a time-ordered list of
pairs ``(x_i(t_k), x_j(t_k))`` — the node's own measurement and the
neighbor's, sampled together.  Victims are always the *oldest* pair of
some line: this shifts the cache toward fresh observations.

Each line additionally maintains the running sufficient statistics
``(n, Σx, Σy, Σx², Σxy, Σy²)`` of its pairs
(:class:`~repro.models.regression.RegressionStats`), updated in O(1)
on ``append``/``evict_oldest``, so the fitted model is a closed form
over six sums.  Because ``evict_oldest`` *subtracts* from the sums,
floating-point drift can accumulate; the line re-derives its
statistics exactly from the stored pairs every
:data:`STATS_SYNC_INTERVAL` evictions to keep the drift bounded.  The
round-robin baseline stores its lines here; the §4 manager keeps the
same state in the columns of :mod:`repro.models.soa` and hands out
copies as :class:`CacheLine` objects.

Closed forms carry rounding noise, so §4's comparisons are made under
one stated tie rule (:data:`TIE_RTOL`) rather than on raw float bits.

Budget accounting follows the paper exactly: values are 4-byte floats,
so a pair occupies 8 bytes; a cache of 2,048 bytes holds 256 pairs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from typing import Iterator, Optional

from repro.models.regression import LinearModel, RegressionStats

__all__ = [
    "CacheLine",
    "BYTES_PER_VALUE",
    "BYTES_PER_PAIR",
    "STATS_SYNC_INTERVAL",
    "TIE_RTOL",
    "pairs_for_budget",
]

#: The §4 tie rule's relative tolerance.
#:
#: Closed-form scores carry ~1e-11 relative rounding noise, so the
#: cache never lets a decision hinge on which side of an exact tie that
#: noise falls.  Instead:
#:
#: * **Equal scores.**  Two benefits within
#:   ``tol = TIE_RTOL · max(baseline, 1)`` of each other are equal
#:   (``baseline`` is the no-answer score over ``c_aug``), and equal
#:   scores resolve REJECT before SHIFT before AUGMENT — §4's test
#:   order.  Test 1 rejects when ``b_c >= b_s - tol and b_c >= b_a -
#:   tol``, test 2 shifts when ``b_s >= b_a - tol``, and with no
#:   affordable victim the cache shifts only if ``b_s > b_c + tol``.
#: * **Penalties.**  An eviction penalty below
#:   ``TIE_RTOL · max(Σy²/n, 1)`` is exactly ``0.0``, and equal
#:   penalties evict the lowest neighbor id.
#:
#: Genuine margins are many orders of magnitude wider than ``tol``.
TIE_RTOL = 1e-9

#: The paper represents measurements as 4-byte floats (§6.1).
BYTES_PER_VALUE = 4
#: A cached observation is a pair of values.
BYTES_PER_PAIR = 2 * BYTES_PER_VALUE

#: Evictions between exact recomputations of a line's running sums.
#: Each eviction subtracts from the sums and can leave ~1 ulp of the
#: running magnitude behind; re-deriving the sums from the stored pairs
#: every K evictions bounds the accumulated drift at ~K ulps, far below
#: anything the §4 decision comparisons can resolve.
STATS_SYNC_INTERVAL = 64


def pairs_for_budget(cache_bytes: int) -> int:
    """How many pairs fit in a ``cache_bytes`` budget.

    >>> pairs_for_budget(2048)
    256
    """
    if cache_bytes < BYTES_PER_PAIR:
        raise ValueError(
            f"cache of {cache_bytes} bytes cannot hold even one "
            f"{BYTES_PER_PAIR}-byte pair"
        )
    return cache_bytes // BYTES_PER_PAIR


class CacheLine:
    """Time-ordered ``(x_i, x_j)`` observations for one neighbor.

    The line keeps the running :class:`RegressionStats` of its pairs,
    re-derived from them every :data:`STATS_SYNC_INTERVAL` evictions;
    the fitted model is a closed form over them.  ``stats`` and
    ``evictions_since_sync`` seed a line with state read elsewhere:
    ``stats`` must be the running sums of ``pairs``.
    """

    __slots__ = ("neighbor_id", "_pairs", "_stats", "_evictions_since_sync")

    def __init__(
        self,
        neighbor_id: int,
        pairs: Iterable[tuple[float, float]] = (),
        stats: Optional[RegressionStats] = None,
        evictions_since_sync: int = 0,
    ) -> None:
        self.neighbor_id = neighbor_id
        self._pairs: deque[tuple[float, float]] = deque(pairs)
        self._stats = RegressionStats() if stats is None else stats
        self._evictions_since_sync = evictions_since_sync

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self._pairs)

    @property
    def pairs(self) -> list[tuple[float, float]]:
        """A copy of the stored pairs, oldest first."""
        return list(self._pairs)

    @property
    def evictions_since_sync(self) -> int:
        """Evictions since the last exact resync of the running sums."""
        return self._evictions_since_sync

    @property
    def stats(self) -> RegressionStats:
        """The line's live sufficient statistics.

        Treat as read-only.
        """
        return self._stats

    def append(self, own_value: float, neighbor_value: float) -> None:
        """Store a new observation (newest position); O(1)."""
        pair = (float(own_value), float(neighbor_value))
        self._pairs.append(pair)
        self._stats.add(*pair)

    def evict_oldest(self) -> tuple[float, float]:
        """Remove and return the oldest observation; O(1) amortized.

        Raises
        ------
        IndexError
            If the line is empty.
        """
        if not self._pairs:
            raise IndexError(f"cache line for neighbor {self.neighbor_id} is empty")
        pair = self._pairs.popleft()
        x, y = pair
        stats = self._stats
        # If the departing pair dominates a sum, the subtraction cancels
        # catastrophically and the tiny residual would be mostly noise
        # (e.g. removing x=91 from a line of x≈1 values).  Rebuild
        # exactly instead of subtracting — rare, and O(n) only when a
        # dominant value actually leaves the window.
        dominant = x * x > 0.5 * stats.sum_xx or y * y > 0.5 * stats.sum_yy
        stats.remove(x, y)
        self._evictions_since_sync += 1
        if dominant or self._evictions_since_sync >= STATS_SYNC_INTERVAL:
            self._stats = RegressionStats.from_pairs(self._pairs)
            self._evictions_since_sync = 0
        return pair

    def model(self) -> LinearModel:
        """The sse-optimal model for the stored pairs (Lemma 1, O(1)).

        Raises
        ------
        ValueError
            If the line is empty.
        """
        return self._stats.fit()

    def __repr__(self) -> str:
        return f"CacheLine(neighbor={self.neighbor_id}, pairs={len(self._pairs)})"
