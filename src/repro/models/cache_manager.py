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

Every candidate is scored from the line's running sufficient
statistics (:class:`~repro.models.regression.RegressionStats`): ``c_aug``
is the sums plus the new pair, the shifted line is ``c_aug`` minus the
oldest pair, and each fit/sse is a closed form over six sums — the
whole decision is O(1) with zero list copies.  Victim selection is a
direct minimum of ``(penalty, neighbor_id)`` over the cache's lines,
with each line's penalty memoized until the line is mutated.

Correlated data ties constantly (collinear lines score shift and
augment alike and have zero eviction penalties), so the comparisons
follow the tie rule of :data:`~repro.models.cache.TIE_RTOL`: benefits
within its tolerance are equal and resolve REJECT before SHIFT before
AUGMENT, a penalty within it of zero is ``0.0``, and equal penalties
evict the smaller neighbor id.

The procedure runs in one engine, the struct-of-arrays
:class:`~repro.models.soa.ModelAwareCacheFleet`; a
:class:`ModelAwareCache` is a handle on one of its lanes.  The scalar
reading of this procedure over :class:`~repro.models.cache.CacheLine`
objects is kept as the test oracle (``tests/models/scalar_oracle.py``)
that the fleet is proven against, decision for decision.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from repro.models.cache import CacheLine
from repro.models.policy import CachePolicy
from repro.models.regression import RegressionStats
from repro.models.soa import ModelAwareCacheFleet

__all__ = ["ModelAwareCache"]


class ModelAwareCache(CachePolicy):
    """Benefit-driven cache admission and replacement (§4).

    The cache is one lane of a :class:`~repro.models.soa.ModelAwareCacheFleet`,
    which holds its lines and makes its decisions.  ``SnapshotRuntime``
    binds every node's cache to lane ``node_id`` of one shared fleet
    (:meth:`bind_fleet`); a cache used on its own gets a private
    one-lane fleet on first use (:attr:`_fleet`).  The fleet is built
    then, not in ``__init__``, so building a runtime's caches allocates
    nothing the shared fleet replaces.

    Parameters
    ----------
    cache_bytes:
        Total budget (Figure 8 sweeps 200 B – 4 KB; 2,048 B default).
    """

    def __init__(self, cache_bytes: int) -> None:
        super().__init__(cache_bytes)
        self._lane = 0

    def bind_fleet(self, fleet: ModelAwareCacheFleet, lane: int) -> None:
        """Make this cache lane ``lane`` of ``fleet``.

        Only a cache that owns no lane yet can be bound: one that was
        used (and so holds a private fleet) or bound before is refused,
        as is a fleet with another byte budget.  The cache keeps its
        class and digest shape, so checkpoints and digests do not see
        where its lane lives.
        """
        if "_fleet" in vars(self):
            raise ValueError(
                f"cache already owns lane {self._lane} of a fleet (it was used "
                f"or bound before); only a fresh cache can be bound"
            )
        if fleet.cache_bytes != self.cache_bytes:
            raise ValueError(
                f"fleet budget {fleet.cache_bytes} != cache budget {self.cache_bytes}"
            )
        self._fleet = fleet
        self._lane = int(lane)

    @cached_property
    def _fleet(self) -> ModelAwareCacheFleet:
        """The fleet holding this cache's lane: set by :meth:`bind_fleet`,
        or built on first use for a cache that was never bound (and
        from then on a plain attribute)."""
        return ModelAwareCacheFleet(1, self.cache_bytes)

    def observe(self, neighbor_id: int, own_value: float, neighbor_value: float) -> str:
        """Offer a fresh pair for ``neighbor_id``; returns the action taken."""
        return self._fleet.observe(self._lane, neighbor_id, own_value, neighbor_value)

    @property
    def total_pairs(self) -> int:
        """Pairs currently stored across all lines (O(1) running count)."""
        return int(self._fleet.total[self._lane])

    def known_neighbors(self) -> list[int]:
        """Neighbors with at least one stored pair, ascending id."""
        return self._fleet.known_neighbors(self._lane)

    def line(self, neighbor_id: int) -> Optional[CacheLine]:
        """A copy of ``neighbor_id``'s line, or ``None``: its pairs,
        running sums and resync count as the lane holds them now."""
        f = self._fleet
        r = f._row(self._lane, neighbor_id)
        if r is None:
            return None
        stats = RegressionStats(
            int(f.n[r]), float(f.sx[r]), float(f.sy[r]),
            float(f.sxx[r]), float(f.sxy[r]), float(f.syy[r]),
        )
        return CacheLine(neighbor_id, f._pairs(r), stats, int(f.esync[r]))

    def estimate(self, neighbor_id: int, own_value: float) -> Optional[float]:
        """Estimate ``x̂_j``, or ``None`` if unmodeled, from the row's
        fitted coefficients."""
        f = self._fleet
        r = f._row(self._lane, neighbor_id)
        if r is None or not f.n[r]:
            return None
        a, b = f._current_fit(r)
        return a * own_value + b  # LinearModel.predict

    def digest_state(self) -> tuple:
        """Canonical state: the shared line state plus the newcomer cursor."""
        return super().digest_state() + (int(self._fleet.rr[self._lane]),)
