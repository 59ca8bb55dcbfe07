"""Cache lines: the per-neighbor observation history (§4).

A node's cache is a set of *cache lines*, one per neighbor it has heard
from.  The cache line for neighbor ``N_j`` is a time-ordered list of
pairs ``(x_i(t_k), x_j(t_k))`` — the node's own measurement and the
neighbor's, sampled together.  Victims are always the *oldest* pair of
some line: this shifts the cache toward fresh observations.

Each line additionally maintains the running sufficient statistics
``(n, Σx, Σy, Σx², Σxy, Σy²)`` of its pairs
(:class:`~repro.models.regression.RegressionStats`), updated in O(1)
on ``append``/``evict_oldest``.  The fitted model, the benefit over the
no-answer policy and the §4 eviction penalty are all closed forms over
those statistics, so every quantity the cache manager scores is O(1) —
no pass over the pairs, no list copies.  Because ``evict_oldest``
*subtracts* from the sums, floating-point drift can accumulate; the
line re-derives its statistics exactly from the stored pairs every
:data:`STATS_SYNC_INTERVAL` evictions to keep the drift bounded.

Closed forms carry rounding noise, so §4's comparisons are made under
one stated tie rule (:data:`TIE_RTOL`) rather than on raw float bits.

Budget accounting follows the paper exactly: values are 4-byte floats,
so a pair occupies 8 bytes; a cache of 2,048 bytes holds 256 pairs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from itertools import islice
from typing import Iterator, Optional

from repro.models.regression import (
    LinearModel,
    RegressionStats,
    fit_coefficients,
    model_sse,
)

__all__ = [
    "CacheLine",
    "PairsView",
    "BYTES_PER_VALUE",
    "BYTES_PER_PAIR",
    "STATS_SYNC_INTERVAL",
    "TIE_RTOL",
    "pairs_for_budget",
]

#: The §4 tie rule's relative tolerance, shared by both cache engines.
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


class PairsView(Sequence):
    """Read-only, lazy view of a line's stored pairs, oldest first.

    Wraps the live container without copying: ``len``, indexing
    (negative indices and slices included), iteration and equality
    against any sequence of pairs all work, but the view follows
    subsequent mutations of the line.  Snapshot with ``list(view)``
    when a frozen copy is needed.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Sequence[tuple[float, float]]) -> None:
        self._pairs = pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._pairs)[index]
        return self._pairs[index]

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self._pairs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairsView):
            other = other._pairs
        if isinstance(other, (list, tuple, deque)):
            if len(self._pairs) != len(other):
                return False
            return all(a == b for a, b in zip(self._pairs, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"PairsView({list(self._pairs)!r})"


class CacheLine:
    """Time-ordered ``(x_i, x_j)`` observations for one neighbor.

    The fitted model, benefit and eviction penalty are derived from the
    line's running :class:`RegressionStats` in O(1), cached, and
    invalidated on mutation — the constant-time updates §4 calls for.
    """

    __slots__ = (
        "neighbor_id",
        "_pairs",
        "_stats",
        "_model",
        "_model_ab",
        "_benefit",
        "_penalty",
        "_evictions_since_sync",
    )

    def __init__(self, neighbor_id: int) -> None:
        self.neighbor_id = neighbor_id
        self._pairs: deque[tuple[float, float]] = deque()
        self._stats = RegressionStats()
        self._model: Optional[LinearModel] = None
        self._model_ab: Optional[tuple[float, float]] = None
        self._benefit: Optional[float] = None
        self._penalty: Optional[float] = None
        self._evictions_since_sync = 0

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self._pairs)

    @property
    def pairs(self) -> PairsView:
        """The stored pairs, oldest first (a lazy, read-only view).

        The view wraps the live container — no copy — so it tracks
        later mutations; snapshot with ``list(line.pairs)`` when a
        frozen copy is needed.
        """
        return PairsView(self._pairs)

    @property
    def evictions_since_sync(self) -> int:
        """Evictions since the last exact resync of the running sums."""
        return self._evictions_since_sync

    @property
    def oldest(self) -> tuple[float, float]:
        """The oldest stored pair (the §4 eviction victim), no copy.

        Raises
        ------
        IndexError
            If the line is empty.
        """
        return self._pairs[0]

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
        self._invalidate()

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
            self._resync_stats()
        self._invalidate()
        return pair

    def model_coefficients(self) -> tuple[float, float]:
        """The sse-optimal ``(slope, intercept)`` (cached, O(1)).

        The allocation-free accessor the decision hot path uses;
        :meth:`model` wraps the same cached fit in a :class:`LinearModel`.

        Raises
        ------
        ValueError
            If the line is empty.
        """
        if self._model_ab is None:
            st = self._stats
            if st.n == 0:
                raise ValueError("cannot fit a model to an empty cache line")
            self._model_ab = fit_coefficients(
                st.n, st.sum_x, st.sum_y, st.sum_xx, st.sum_xy
            )
        return self._model_ab

    def model(self) -> LinearModel:
        """The sse-optimal model for the stored pairs (cached, O(1))."""
        if self._model is None:
            self._model = LinearModel(*self.model_coefficients())
        return self._model

    def benefit(self) -> float:
        """``no_answer_sse(c) - sse(c, a*, b*)`` over the stored pairs (§4)."""
        if not self._pairs:
            return 0.0
        if self._benefit is None:
            st = self._stats
            a, b = self.model_coefficients()
            sse = model_sse(
                st.n, st.sum_x, st.sum_y, st.sum_xx, st.sum_xy, st.sum_yy, a, b
            )
            syy = st.sum_yy
            self._benefit = ((syy if syy > 0.0 else 0.0) - sse) / st.n
        return self._benefit

    def eviction_penalty(self) -> float:
        """§4's ``Penalty_Evict``: degradation from losing the oldest pair.

        ``benefit(c', a*(c'), b*(c')) - benefit(c', a*(c''), b*(c''))``
        where ``c''`` is the line minus its oldest pair.  Both models
        are *evaluated over the full line* ``c'`` — the penalty measures
        how much worse all known observations would be served.  A line
        with a single pair has penalty equal to its full benefit (the
        model disappears entirely).  A penalty under the tie tolerance
        (:data:`TIE_RTOL`) is exactly ``0.0``.  O(1) via the sufficient
        statistics.
        """
        if not self._pairs:
            return 0.0
        if self._penalty is None:
            full_benefit = self.benefit()
            st = self._stats
            n = st.n
            syy = st.sum_yy
            if n == 1:
                penalty = full_benefit
            else:
                sx = st.sum_x
                sy = st.sum_y
                sxx = st.sum_xx
                sxy = st.sum_xy
                ox, oy = self._pairs[0]
                # Reduced line c'' = c' minus its oldest pair, as raw sums.
                if ox * ox > 0.5 * sxx or oy * oy > 0.5 * syy:
                    # The oldest pair dominates a sum: subtracting would
                    # cancel catastrophically.  Rare exact O(n) fallback.
                    reduced = RegressionStats.from_pairs(
                        islice(self._pairs, 1, None)
                    )
                    slope, intercept = fit_coefficients(
                        reduced.n,
                        reduced.sum_x,
                        reduced.sum_y,
                        reduced.sum_xx,
                        reduced.sum_xy,
                    )
                else:
                    slope, intercept = fit_coefficients(
                        n - 1, sx - ox, sy - oy, sxx - ox * ox, sxy - ox * oy
                    )
                # The reduced model, evaluated over the *full* line c'.
                reduced_sse = model_sse(n, sx, sy, sxx, sxy, syy, slope, intercept)
                reduced_benefit = ((syy if syy > 0.0 else 0.0) - reduced_sse) / n
                penalty = full_benefit - reduced_benefit
            # The tie rule (TIE_RTOL): a penalty within rounding noise of
            # zero is exactly zero, so tied lines order by neighbor id.
            scale = syy / n
            if penalty < TIE_RTOL * (scale if scale > 1.0 else 1.0):
                penalty = 0.0
            self._penalty = penalty
        return self._penalty

    def _resync_stats(self) -> None:
        self._stats = RegressionStats.from_pairs(self._pairs)
        self._evictions_since_sync = 0

    def _invalidate(self) -> None:
        self._model = None
        self._model_ab = None
        self._benefit = None
        self._penalty = None

    def __repr__(self) -> str:
        return f"CacheLine(neighbor={self.neighbor_id}, pairs={len(self._pairs)})"
