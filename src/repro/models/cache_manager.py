"""The model-aware cache manager (§4 of the paper).

When a new synchronized observation ``(x_i(t), x_j(t))`` arrives and
the cache is full, the manager weighs three actions for ``N_j``'s line
``c``:

* **reject** — keep the cache as is;
* **time-shift** — drop ``c``'s oldest pair and append the new one;
* **augment** — append the new pair to ``c`` and evict the oldest pair
  of some *other* line.

All three are scored by the *benefit* their resulting model provides
over the no-answer policy, where — crucially — every candidate model is
evaluated over ``c_aug`` (all known observations of ``x_j``, including
the new one):

    benefit(c_aug, a, b) = no_answer_sse(c_aug) - sse(c_aug, a, b)

The decision procedure, in the paper's order:

1. if ``benefit(c_aug, a*(c), b*(c))`` dominates both the shift and the
   augment models, the current model is already the most accurate on
   everything we know → **reject**;
2. else if the shift model dominates the augment model → **time-shift**;
3. else augmenting is best; find the other line with the smallest
   eviction penalty ``Penalty_Evict_k < Gain_Augment_j`` and evict its
   oldest pair → **augment**;
4. if no such victim exists, **time-shift** if the shift model still
   beats the current one, otherwise **reject**.

*Newcomers* (first observation for a neighbor) bypass the benefit test:
their gain would be ``x_j(t)²``, which can evict a good small-amplitude
model; instead the victim is chosen round-robin among all lines.

Every candidate is scored from the line's running sufficient statistics
(:class:`~repro.models.regression.RegressionStats`): ``c_aug`` is the
stats plus the new pair, the shifted line is ``c_aug`` minus the oldest
pair, and each fit/sse is a closed form over six sums — the whole
decision is O(1) with zero list copies.  Victim selection is a direct
minimum of ``(penalty, neighbor_id)`` over the cache's lines, O(lines)
per augment; each :class:`~repro.models.cache.CacheLine` memoizes its
own penalty until it is mutated.

Correlated data ties constantly (collinear lines score shift and
augment alike and have zero eviction penalties), so the comparisons
follow the tie rule of :data:`~repro.models.cache.TIE_RTOL`: benefits
within its tolerance are equal and resolve REJECT before SHIFT before
AUGMENT, a penalty within it of zero is ``0.0``, and equal penalties
evict the smaller neighbor id.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.models.cache import TIE_RTOL, CacheLine, PairsView
from repro.models.policy import Action, CachePolicy
from repro.models.regression import (
    LinearModel,
    RegressionStats,
    fit_coefficients,
    model_sse,
)
from repro.models.soa import ModelAwareCacheFleet

__all__ = ["ModelAwareCache", "FleetLineView"]


class FleetLineView:
    """Read-only line facade over one lane of a :class:`ModelAwareCacheFleet`.

    Resolves its row by ``(lane, neighbor_id)`` on every access, so the
    view stays valid across evictions that free or reuse slots, and
    answers the read surface consumers of ``policy.line(j)`` use —
    ``len``, iteration, ``pairs``, ``stats``, the fitted
    model, benefit and eviction penalty — from the fleet's columns and
    memos, exactly as a scalar :class:`CacheLine` would.  Memo reads
    (fit/benefit/penalty) refresh the fleet's memo columns; memoized
    values are pure functions of the sums, so reads never perturb
    future decisions.
    """

    __slots__ = ("_fleet", "_lane", "neighbor_id")

    def __init__(self, fleet: ModelAwareCacheFleet, lane: int, neighbor_id: int) -> None:
        self._fleet = fleet
        self._lane = lane
        self.neighbor_id = neighbor_id

    def _row(self) -> Optional[int]:
        return self._fleet._row(self._lane, self.neighbor_id)

    def __len__(self) -> int:
        r = self._row()
        return 0 if r is None else int(self._fleet.n[r])

    def __iter__(self) -> Iterator[tuple[float, float]]:
        r = self._row()
        return iter(()) if r is None else iter(self._fleet._pairs(r))

    @property
    def pairs(self) -> PairsView:
        """The stored pairs, oldest first (a lazy, read-only view)."""
        r = self._row()
        return PairsView(() if r is None else self._fleet._pairs(r))

    @property
    def stats(self) -> RegressionStats:
        """A fresh :class:`RegressionStats` snapshot of the row's sums."""
        r = self._row()
        if r is None:
            return RegressionStats()
        f = self._fleet
        return RegressionStats(
            int(f.n[r]), float(f.sx[r]), float(f.sy[r]),
            float(f.sxx[r]), float(f.sxy[r]), float(f.syy[r]),
        )

    @property
    def evictions_since_sync(self) -> int:
        r = self._row()
        return 0 if r is None else int(self._fleet.esync[r])

    def model_coefficients(self) -> tuple[float, float]:
        r = self._row()
        if r is None:
            raise ValueError("cannot fit a model to an empty cache line")
        return self._fleet._current_fit(r)

    def model(self) -> LinearModel:
        return LinearModel(*self.model_coefficients())

    def benefit(self) -> float:
        r = self._row()
        return 0.0 if r is None else self._fleet._benefit_scalar(r)

    def eviction_penalty(self) -> float:
        r = self._row()
        return 0.0 if r is None else self._fleet._penalty_scalar(r)

    def __repr__(self) -> str:
        return (
            f"FleetLineView(lane={self._lane}, neighbor={self.neighbor_id}, "
            f"pairs={len(self)})"
        )


class ModelAwareCache(CachePolicy):
    """Benefit-driven cache admission and replacement (§4).

    Two engines sit behind one API, chosen by whether a fleet is bound,
    not by an option.  A cache bound to a lane of a shared
    :class:`~repro.models.soa.ModelAwareCacheFleet` (see
    :meth:`bind_fleet`; ``SnapshotRuntime`` binds every node's cache)
    runs the fleet's columns and answers :meth:`line` through
    :class:`FleetLineView`.  An unbound cache runs the scalar
    :class:`CacheLine` object graph below — the literal §4 reading and
    the oracle the fleet is tested against, decision for decision.

    Parameters
    ----------
    cache_bytes:
        Total budget (Figure 8 sweeps 200 B – 4 KB; 2,048 B default).
    """

    def __init__(self, cache_bytes: int) -> None:
        super().__init__(cache_bytes)
        #: Fleet backing (see :meth:`bind_fleet`): when set, this cache
        #: is lane ``_lane`` of a shared :class:`ModelAwareCacheFleet`.
        self._fleet: Optional[ModelAwareCacheFleet] = None
        self._lane = -1
        self._rr_cursor = -1

    def bind_fleet(self, fleet: ModelAwareCacheFleet, lane: int) -> None:
        """Back this cache by lane ``lane`` of a shared fleet.

        Only an *empty* cache can be bound (the fleet lane starts empty
        too, so no state migration is needed — binding happens at
        network construction time).  After binding, every read and
        write dispatches to the fleet's columns; the cache keeps its
        class and digest shape, so checkpoints and equivalence digests
        are indistinguishable from the scalar engine's.
        """
        if self.total_pairs:
            raise ValueError("cannot rebind a non-empty cache to a fleet")
        if fleet.cache_bytes != self.cache_bytes:
            raise ValueError(
                f"fleet budget {fleet.cache_bytes} != cache budget {self.cache_bytes}"
            )
        self._fleet = fleet
        self._lane = int(lane)

    def observe(self, neighbor_id: int, own_value: float, neighbor_value: float) -> str:
        """Offer a fresh pair for ``neighbor_id``; returns the action taken."""
        if self._fleet is not None:
            return self._fleet.observe(self._lane, neighbor_id, own_value, neighbor_value)

        new_pair = (float(own_value), float(neighbor_value))

        if self._total_pairs < self.capacity_pairs:
            line = self._line_or_new(neighbor_id)
            self._append_pair(line, *new_pair)
            self._check_capacity_invariant()
            return Action.APPEND

        line = self._lines.get(neighbor_id)
        if line is None:
            action = self._admit_newcomer(neighbor_id, new_pair)
            self._check_capacity_invariant()
            return action

        action = self._decide_full_cache(line, new_pair)
        self._check_capacity_invariant()
        return action

    # -- fleet-backed read surface -------------------------------------------

    @property
    def total_pairs(self) -> int:
        """Pairs currently stored across all lines (O(1) running count)."""
        if self._fleet is not None:
            return int(self._fleet.total[self._lane])
        return self._total_pairs

    def known_neighbors(self) -> list[int]:
        """Neighbors with at least one stored pair, ascending id."""
        if self._fleet is not None:
            return self._fleet.known_neighbors(self._lane)
        return super().known_neighbors()

    def line(self, neighbor_id: int) -> Optional[CacheLine | FleetLineView]:
        """The cache line for ``neighbor_id``, or ``None``."""
        if self._fleet is not None:
            if self._fleet._row(self._lane, neighbor_id) is None:
                return None
            return FleetLineView(self._fleet, self._lane, neighbor_id)
        return super().line(neighbor_id)

    def estimate(self, neighbor_id: int, own_value: float) -> Optional[float]:
        """Estimate ``x̂_j``, or ``None`` if unmodeled: a fleet-bound cache
        reads the row's fitted coefficients directly."""
        fleet = self._fleet
        if fleet is None:
            return super().estimate(neighbor_id, own_value)
        r = fleet._row(self._lane, neighbor_id)
        if r is None or not fleet.n[r]:
            return None
        a, b = fleet._current_fit(r)
        return a * own_value + b  # LinearModel.predict

    def digest_state(self) -> tuple:
        """Canonical state: the shared line state plus the newcomer cursor."""
        if self._fleet is not None:
            cursor = int(self._fleet.rr[self._lane])
        else:
            cursor = self._rr_cursor
        return super().digest_state() + (cursor,)

    # -- the §4 decision procedure ------------------------------------------

    def _decide_full_cache(self, line: CacheLine, new_pair: tuple[float, float]) -> str:
        neighbor_id = line.neighbor_id
        x, y = new_pair
        st = line.stats

        # c_aug = current stats + new pair; shifted = c_aug - oldest pair.
        # Two O(1) stat deltas (on local floats) replace the old list
        # copies and full refits.
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
            self._apply_shift(line, new_pair)
            return Action.SHIFT

        # Growing the line reduces the error; look for the cheapest victim
        # elsewhere whose penalty is under our gain.
        gain_augment = benefit_augment - benefit_shift
        victim = self._cheapest_victim(exclude=neighbor_id, below=gain_augment)
        if victim is not None:
            self._evict_oldest_of(victim)
            self._append_pair(line, *new_pair)
            return Action.AUGMENT

        # No affordable victim: time-shifting is still better than
        # rejecting if its model beats the current one.
        if benefit_shift > benefit_current + tol:
            self._apply_shift(line, new_pair)
            return Action.SHIFT
        return Action.REJECT

    def _apply_shift(self, line: CacheLine, new_pair: tuple[float, float]) -> None:
        # Evict + append on the same line: the total pair count is
        # unchanged, so the line is mutated directly.
        line.evict_oldest()
        line.append(*new_pair)

    # -- victim selection -----------------------------------------------------

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

    # -- newcomer handling ------------------------------------------------------

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
        line = self._line_or_new(neighbor_id)
        self._append_pair(line, *new_pair)
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
