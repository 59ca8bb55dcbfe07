"""The scalar §4 cache: the oracle the fleet engine is proven against.

:class:`ScalarOracleCache` is the literal reading of §4 (see
``repro.models.cache_manager``) over one :class:`OracleLine` per
neighbor, each scoring itself from its running sums.  The program's one
engine, ``ModelAwareCacheFleet``, must make the same decision on every
observation and hold bit-identical state; ``_BatchReferenceCache``
(``test_incremental_stats.py``) checks the oracle against batch refits.
It digests as ``ModelAwareCache`` does, tag included, so whole runs on
oracle caches (``tests/persist/conftest.py::OracleRuntime``) compare
digest for digest with runs on the fleet.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from repro.models.cache import TIE_RTOL, CacheLine
from repro.models.policy import Action, CachePolicy
from repro.models.regression import (
    LinearModel,
    RegressionStats,
    fit_coefficients,
    model_sse,
)

__all__ = ["OracleLine", "ScalarOracleCache"]


class OracleLine(CacheLine):
    """A cache line that scores itself: fit, benefit and eviction
    penalty in O(1) from its running sums, memoized until mutated."""

    __slots__ = ("_model", "_model_ab", "_benefit", "_penalty")

    def __init__(self, neighbor_id: int) -> None:
        super().__init__(neighbor_id)
        self._invalidate()

    @property
    def oldest(self) -> tuple[float, float]:
        """The oldest stored pair (the §4 eviction victim), no copy."""
        return self._pairs[0]

    def append(self, own_value: float, neighbor_value: float) -> None:
        super().append(own_value, neighbor_value)
        self._invalidate()

    def evict_oldest(self) -> tuple[float, float]:
        pair = super().evict_oldest()
        self._invalidate()
        return pair

    def model_coefficients(self) -> tuple[float, float]:
        """The sse-optimal ``(slope, intercept)`` (memoized)."""
        if self._model_ab is None:
            st = self._stats
            if st.n == 0:
                raise ValueError("cannot fit a model to an empty cache line")
            self._model_ab = fit_coefficients(
                st.n, st.sum_x, st.sum_y, st.sum_xx, st.sum_xy
            )
        return self._model_ab

    def model(self) -> LinearModel:
        """The sse-optimal model for the stored pairs (memoized)."""
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
        (:data:`TIE_RTOL`) is exactly ``0.0``.
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
                sx, sy, sxx, sxy = st.sum_x, st.sum_y, st.sum_xx, st.sum_xy
                ox, oy = self._pairs[0]
                # Reduced line c'' = c' minus its oldest pair, as raw sums.
                if ox * ox > 0.5 * sxx or oy * oy > 0.5 * syy:
                    # The oldest pair dominates a sum: subtracting would
                    # cancel catastrophically.  Rare exact O(n) fallback.
                    slope, intercept = RegressionStats.from_pairs(
                        islice(self._pairs, 1, None)
                    ).fit()
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

    def _invalidate(self) -> None:
        self._model = None
        self._model_ab = None
        self._benefit = None
        self._penalty = None


class ScalarOracleCache(CachePolicy):
    """The §4 decision procedure over :class:`OracleLine` objects."""

    def __init__(self, cache_bytes: int) -> None:
        super().__init__(cache_bytes)
        self._lines: dict[int, OracleLine] = {}
        self._total_pairs = 0
        self._rr_cursor = -1

    @property
    def total_pairs(self) -> int:
        return self._total_pairs

    def known_neighbors(self) -> list[int]:
        return sorted(self._lines)

    def line(self, neighbor_id: int) -> Optional[OracleLine]:
        return self._lines.get(neighbor_id)

    def digest_state(self) -> tuple:
        """``ModelAwareCache``'s digest: tag, lines, then the cursor."""
        return ("ModelAwareCache",) + super().digest_state()[1:] + (self._rr_cursor,)

    def observe(self, neighbor_id: int, own_value: float, neighbor_value: float) -> str:
        """Offer a fresh pair for ``neighbor_id``; returns the action taken."""
        new_pair = (float(own_value), float(neighbor_value))
        if self._total_pairs < self.capacity_pairs:
            self._append_pair(neighbor_id, new_pair)
            return Action.APPEND
        line = self._lines.get(neighbor_id)
        if line is None:
            return self._admit_newcomer(neighbor_id, new_pair)
        return self._decide_full_cache(line, new_pair)

    # -- line store ---------------------------------------------------------------

    def _append_pair(self, neighbor_id: int, pair: tuple[float, float]) -> None:
        line = self._lines.get(neighbor_id)
        if line is None:
            line = self._lines[neighbor_id] = OracleLine(neighbor_id)
        line.append(*pair)
        self._total_pairs += 1

    def _evict_oldest_of(self, neighbor_id: int) -> None:
        line = self._lines[neighbor_id]
        line.evict_oldest()
        self._total_pairs -= 1
        if not line:
            del self._lines[neighbor_id]

    # -- the §4 decision procedure ------------------------------------------

    def _decide_full_cache(self, line: OracleLine, new_pair: tuple[float, float]) -> str:
        neighbor_id = line.neighbor_id
        x, y = new_pair
        st = line.stats

        # c_aug = current stats + new pair; shifted = c_aug - oldest pair.
        n_aug = st.n + 1
        sx_aug = st.sum_x + x
        sy_aug = st.sum_y + y
        sxx_aug = st.sum_xx + x * x
        sxy_aug = st.sum_xy + x * y
        syy_aug = st.sum_yy + y * y

        ox, oy = line.oldest
        n_shift = st.n
        sx_shift = sx_aug - ox
        sy_shift = sy_aug - oy
        sxx_shift = sxx_aug - ox * ox
        sxy_shift = sxy_aug - ox * oy

        baseline = (syy_aug if syy_aug > 0.0 else 0.0) / n_aug
        a_cur, b_cur = line.model_coefficients()
        a_shift, b_shift = fit_coefficients(
            n_shift, sx_shift, sy_shift, sxx_shift, sxy_shift
        )
        a_aug, b_aug = fit_coefficients(n_aug, sx_aug, sy_aug, sxx_aug, sxy_aug)

        benefit_current = baseline - (
            model_sse(n_aug, sx_aug, sy_aug, sxx_aug, sxy_aug, syy_aug, a_cur, b_cur)
            / n_aug
        )
        benefit_shift = baseline - (
            model_sse(n_aug, sx_aug, sy_aug, sxx_aug, sxy_aug, syy_aug, a_shift, b_shift)
            / n_aug
        )
        benefit_augment = baseline - (
            model_sse(n_aug, sx_aug, sy_aug, sxx_aug, sxy_aug, syy_aug, a_aug, b_aug)
            / n_aug
        )

        # The tie rule (TIE_RTOL): scores within tol are equal, and
        # equal scores resolve REJECT before SHIFT before AUGMENT.
        tol = TIE_RTOL * (baseline if baseline > 1.0 else 1.0)

        # Test 1: the existing model serves all known observations best.
        if (
            benefit_current >= benefit_shift - tol
            and benefit_current >= benefit_augment - tol
        ):
            return Action.REJECT

        # Test 2: replacing our own oldest observation is at least as good
        # as growing the line.
        if benefit_shift >= benefit_augment - tol:
            return self._shift(line, new_pair)

        # Growing the line reduces the error; look for the cheapest victim
        # elsewhere whose penalty is under our gain.
        gain_augment = benefit_augment - benefit_shift
        victim = self._cheapest_victim(exclude=neighbor_id, below=gain_augment)
        if victim is not None:
            self._evict_oldest_of(victim)
            self._append_pair(neighbor_id, new_pair)
            return Action.AUGMENT

        # No affordable victim: time-shifting is still better than
        # rejecting if its model beats the current one.
        if benefit_shift > benefit_current + tol:
            return self._shift(line, new_pair)
        return Action.REJECT

    def _shift(self, line: OracleLine, new_pair: tuple[float, float]) -> str:
        # Evict + append on the same line: the total pair count is
        # unchanged, so the line is mutated directly.
        line.evict_oldest()
        line.append(*new_pair)
        return Action.SHIFT

    def _cheapest_victim(self, exclude: int, below: float) -> Optional[int]:
        """The line other than ``exclude`` with the smallest penalty, if
        that penalty is strictly under ``below``.

        Equal penalties break toward the smaller neighbor id (the
        ``(penalty, neighbor_id)`` order of the tie rule).
        """
        best = min(
            (
                (line.eviction_penalty(), neighbor_id)
                for neighbor_id, line in self._lines.items()
                if neighbor_id != exclude
            ),
            default=None,
        )
        if best is not None and best[0] < below:
            return best[1]
        return None

    def _admit_newcomer(self, neighbor_id: int, new_pair: tuple[float, float]) -> str:
        """First observation for a neighbor with the cache full.

        The gain formula would value the newcomer at ``x_j²`` — enough
        to destroy good models of small-amplitude measurements — so the
        victim is instead chosen round-robin among all existing lines
        (§4's "for newcomers we pick the victim in a round-robin
        fashion").
        """
        victim = self._next_round_robin_victim(exclude=neighbor_id)
        if victim is None:
            # Degenerate budget: nothing to evict (no other line holds a
            # pair).  Reject; the invariant wins over admission.
            return Action.REJECT
        self._evict_oldest_of(victim)
        self._append_pair(neighbor_id, new_pair)
        return Action.NEWCOMER

    def _next_round_robin_victim(self, exclude: int) -> Optional[int]:
        candidates = sorted(k for k in self._lines if k != exclude)
        if not candidates:
            return None
        for k in candidates:
            if k > self._rr_cursor:
                self._rr_cursor = k
                return k
        # wrap around
        self._rr_cursor = candidates[0]
        return candidates[0]
