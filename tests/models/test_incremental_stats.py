"""Equivalence tests for the O(1) sufficient-statistics cache rewrite.

Three guarantees are pinned down here:

1. **Numerical equivalence** — a line's incremental statistics, fit,
   benefit and eviction penalty match the batch formulas (``fit_line``,
   ``mean_sse_of_model``, ``no_answer_sse`` over the stored pairs)
   within 1e-9, or 1e-12 of the closed form's term magnitude where
   cancellation makes that the achievable bound (see
   ``sse_tolerance``), across random append/evict sequences, including
   the drift regime where evictions dominate (bounded by the periodic
   exact recompute every ``STATS_SYNC_INTERVAL`` evictions).
2. **Decision equivalence** — ``ModelAwareCache`` emits the identical
   reject/shift/augment/newcomer trace as a self-contained batch-refit
   reference of the §4 procedure under the same tie rule
   (:data:`~repro.models.cache.TIE_RTOL`), on seeded correlated streams.
3. **No copies on the hot path** — ``observe``/``benefit``/
   ``eviction_penalty``/``model`` never touch the copying ``pairs``
   property.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models.cache import BYTES_PER_PAIR, STATS_SYNC_INTERVAL, TIE_RTOL, CacheLine
from repro.models.cache_manager import ModelAwareCache
from repro.models.policy import Action
from repro.models.regression import (
    RegressionStats,
    fit_line,
    mean_sse_of_model,
    no_answer_sse,
)


EPS = sys.float_info.epsilon


def assert_close(a: float, b: float, tol: float = 1e-9) -> None:
    assert math.isclose(a, b, rel_tol=tol, abs_tol=tol), f"{a} != {b}"


def sse_tolerance(stats, model) -> float:
    """Absolute tolerance for closed-form sse quantities.

    The sufficient-statistics sse cancels at the scale of its largest
    term (``a²Σx²`` for steep lines on nearly-constant x), so the
    achievable absolute accuracy is ``eps`` *relative to that scale* —
    not an unconditional 1e-9.  1e-12 of the term magnitude leaves
    ~4 decimal digits of headroom over the worst-case rounding bound
    for 120-pair lines while staying far below any decision-relevant
    difference (the cache's tie rule treats scale-relative margins this
    small as ties anyway).
    """
    scale = (
        abs(stats.sum_yy)
        + model.slope * model.slope * abs(stats.sum_xx)
        + 2.0 * abs(model.slope * stats.sum_xy)
        + stats.n * model.intercept * model.intercept
    )
    return max(1e-9, 1e-12 * scale / max(stats.n, 1))


def reduced_fit_condition(pairs: list[tuple[float, float]]) -> float:
    """Condition number ``n·Σx² / (n·Σx² − (Σx)²)`` of the fit over ``pairs[1:]``.

    The eviction penalty subtracts the benefit of that reduced fit, and
    fitting it from sufficient sums loses about ``log10`` of this many
    digits: two points 0.047 apart at x≈63.5 give 7.3e6.  A reduced
    fit with fewer than two distinct x values is the exact constant
    model (1.0).
    """
    xs = [x for x, _ in pairs[1:]]
    if len(xs) < 2:
        return 1.0
    mean = math.fsum(xs) / len(xs)
    spread = math.fsum((x - mean) ** 2 for x in xs)
    if spread <= 0.0:
        return 1.0
    return math.fsum(x * x for x in xs) / spread


# -- batch reference formulas -------------------------------------------------


def batch_benefit(pairs: list[tuple[float, float]]) -> float:
    if not pairs:
        return 0.0
    return no_answer_sse(pairs) - mean_sse_of_model(pairs, fit_line(pairs))


def batch_eviction_penalty(pairs: list[tuple[float, float]]) -> float:
    """The §4 eviction penalty by batch refits, with the tie rule's snap.

    A penalty below ``TIE_RTOL · max(no_answer_sse, 1)`` is exactly 0.0.
    """
    if not pairs:
        return 0.0
    penalty = batch_benefit(pairs)
    remaining = pairs[1:]
    if remaining:
        reduced_model = fit_line(remaining)
        reduced_benefit = no_answer_sse(pairs) - mean_sse_of_model(pairs, reduced_model)
        penalty -= reduced_benefit
    if penalty < TIE_RTOL * max(no_answer_sse(pairs), 1.0):
        return 0.0
    return penalty


class TestRegressionStats:
    def test_add_matches_from_pairs(self):
        pairs = [(1.0, 2.0), (3.0, -1.0), (0.5, 0.25)]
        stats = RegressionStats()
        for pair in pairs:
            stats.add(*pair)
        batch = RegressionStats.from_pairs(pairs)
        for field in ("n", "sum_x", "sum_y", "sum_xx", "sum_xy", "sum_yy"):
            assert getattr(stats, field) == getattr(batch, field)

    def test_remove_inverts_add(self):
        stats = RegressionStats.from_pairs([(1.0, 2.0), (3.0, 4.0)])
        stats.add(5.0, 6.0)
        stats.remove(5.0, 6.0)
        batch = RegressionStats.from_pairs([(1.0, 2.0), (3.0, 4.0)])
        assert stats.n == batch.n
        assert_close(stats.sum_xy, batch.sum_xy)

    def test_remove_to_empty_snaps_to_zero(self):
        stats = RegressionStats.from_pairs([(0.1, 0.2)])
        stats.remove(0.1, 0.2)
        assert stats.n == 0
        assert stats.sum_x == 0.0 and stats.sum_yy == 0.0

    def test_remove_from_empty_raises(self):
        with pytest.raises(ValueError):
            RegressionStats().remove(1.0, 1.0)

    def test_fit_matches_fit_line(self):
        pairs = [(0.0, 1.0), (1.0, 3.1), (2.0, 4.9), (3.0, 7.2)]
        incremental = RegressionStats.from_pairs(pairs).fit()
        batch = fit_line(pairs)
        assert_close(incremental.slope, batch.slope)
        assert_close(incremental.intercept, batch.intercept)

    def test_sse_matches_residual_sum(self):
        pairs = [(0.0, 1.0), (1.0, 3.1), (2.0, 4.9), (3.0, 7.2)]
        stats = RegressionStats.from_pairs(pairs)
        model = stats.fit()
        assert_close(stats.sse(model) / stats.n, mean_sse_of_model(pairs, model))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            RegressionStats().fit()


class TestIncrementalMatchesBatch:
    """Seeded property test: stats stay equivalent through append/evict."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["append", "evict"]),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=120,
        )
    )
    @example(
        [("append", 12.0, 0.0), ("append", 63.5, 0.0), ("append", 63.54699667296126, 1.0)]
    )
    @settings(max_examples=60, deadline=None)
    def test_model_benefit_penalty_track_batch(self, operations):
        line = CacheLine(neighbor_id=0)
        for op, x, y in operations:
            if op == "evict" and len(line) > 0:
                line.evict_oldest()
            else:
                line.append(x, y)
            pairs = line.pairs
            if not pairs:
                continue
            batch_model = fit_line(pairs)
            model = line.model()
            tol = sse_tolerance(line.stats, model)
            assert_close(model.slope, batch_model.slope)
            assert_close(model.intercept, batch_model.intercept)
            assert_close(
                line.stats.sse(model) / line.stats.n,
                mean_sse_of_model(pairs, batch_model),
                tol=tol,
            )
            assert_close(line.benefit(), batch_benefit(pairs), tol=tol)
            # The penalty's reduced fit may be ill-conditioned on its own.
            penalty_tol = max(tol, 16 * EPS * reduced_fit_condition(pairs))
            assert_close(
                line.eviction_penalty(), batch_eviction_penalty(pairs), tol=penalty_tol
            )

    def test_drift_stays_bounded_through_heavy_eviction(self):
        """Thousands of shift cycles (each an eviction-subtraction) on a
        large-amplitude line: the periodic exact recompute keeps the
        incremental quantities within 1e-9 of the batch formulas."""
        rng = random.Random(7)
        line = CacheLine(neighbor_id=0)
        value = 1000.0
        for _ in range(32):
            value += rng.gauss(0.0, 10.0)
            line.append(value, 0.9 * value + rng.gauss(0.0, 5.0))
        evictions = 0
        for _ in range(5000):
            value += rng.gauss(0.0, 10.0)
            line.evict_oldest()
            line.append(value, 0.9 * value + rng.gauss(0.0, 5.0))
            evictions += 1
            if evictions % 500 == 0:
                pairs = line.pairs
                assert_close(line.benefit(), batch_benefit(pairs))
                assert_close(line.eviction_penalty(), batch_eviction_penalty(pairs))
                exact = RegressionStats.from_pairs(pairs)
                assert_close(line.stats.sum_xy, exact.sum_xy, tol=1e-9)

    def test_sync_counter_resets_after_interval(self):
        line = CacheLine(neighbor_id=0)
        for i in range(STATS_SYNC_INTERVAL + 8):
            line.append(float(i), float(i))
        for _ in range(STATS_SYNC_INTERVAL):
            line.evict_oldest()
        assert line._evictions_since_sync == 0  # exact recompute happened


# -- golden decision trace ----------------------------------------------------


class _BatchReferenceCache:
    """The §4 decision procedure by batch refits over plain lists.

    Batch refits of current/shifted/augmented candidates compared under
    the tie rule (:data:`~repro.models.cache.TIE_RTOL`), a full sorted
    scan for the cheapest victim, and the same round-robin newcomer
    rule — the golden reference the O(1) engines must reproduce.
    """

    def __init__(self, capacity_pairs: int) -> None:
        self.capacity = capacity_pairs
        self.lines: dict[int, list[tuple[float, float]]] = {}
        self.rr_cursor = -1

    def total_pairs(self) -> int:
        return sum(len(pairs) for pairs in self.lines.values())

    def observe(self, neighbor_id: int, own: float, neighbor: float) -> str:
        pair = (float(own), float(neighbor))
        if self.total_pairs() < self.capacity:
            self.lines.setdefault(neighbor_id, []).append(pair)
            return Action.APPEND
        line = self.lines.get(neighbor_id)
        if not line:
            return self._admit_newcomer(neighbor_id, pair)
        return self._decide(neighbor_id, line, pair)

    def _decide(self, neighbor_id, line, pair) -> str:
        augmented = line + [pair]
        shifted = line[1:] + [pair]
        baseline = no_answer_sse(augmented)
        benefit_current = baseline - mean_sse_of_model(augmented, fit_line(line))
        benefit_shift = baseline - mean_sse_of_model(augmented, fit_line(shifted))
        benefit_augment = baseline - mean_sse_of_model(augmented, fit_line(augmented))
        tol = TIE_RTOL * max(baseline, 1.0)
        if benefit_current >= benefit_shift - tol and benefit_current >= benefit_augment - tol:
            return Action.REJECT
        if benefit_shift >= benefit_augment - tol:
            self.lines[neighbor_id] = shifted
            return Action.SHIFT
        gain = benefit_augment - benefit_shift
        victim = self._cheapest_victim(exclude=neighbor_id, below=gain)
        if victim is not None:
            self._evict_from(victim)
            self.lines[neighbor_id] = augmented
            return Action.AUGMENT
        if benefit_shift > benefit_current + tol:
            self.lines[neighbor_id] = shifted
            return Action.SHIFT
        return Action.REJECT

    def _cheapest_victim(self, exclude: int, below: float) -> Optional[int]:
        best_id: Optional[int] = None
        best_penalty = below
        for k in sorted(self.lines):
            if k == exclude or not self.lines[k]:
                continue
            penalty = batch_eviction_penalty(self.lines[k])
            if penalty < best_penalty:
                best_penalty = penalty
                best_id = k
        return best_id

    def _evict_from(self, neighbor_id: int) -> None:
        self.lines[neighbor_id].pop(0)
        if not self.lines[neighbor_id]:
            del self.lines[neighbor_id]

    def _admit_newcomer(self, neighbor_id: int, pair) -> str:
        candidates = sorted(
            k for k, pairs in self.lines.items() if k != neighbor_id and pairs
        )
        if not candidates:
            return Action.REJECT
        victim = next((k for k in candidates if k > self.rr_cursor), candidates[0])
        self.rr_cursor = victim
        self._evict_from(victim)
        self.lines.setdefault(neighbor_id, []).append(pair)
        return Action.NEWCOMER


def correlated_stream(length: int, neighbors: int, seed: int):
    rng = random.Random(seed)
    own = 0.0
    walks = {j: rng.uniform(-5.0, 5.0) for j in range(neighbors)}
    stream = []
    for _ in range(length):
        own += rng.gauss(0.0, 1.0)
        j = rng.randrange(neighbors)
        walks[j] += rng.gauss(0.0, 1.0)
        stream.append((j, own, 0.8 * own + walks[j]))
    return stream


class TestGoldenDecisionTrace:
    @pytest.mark.parametrize(
        "capacity,neighbors,seed",
        [(2, 3, 1), (4, 4, 2), (8, 5, 3), (16, 5, 4), (32, 6, 5)],
    )
    def test_trace_identical_to_batch_reference(self, capacity, neighbors, seed):
        cache = ModelAwareCache(BYTES_PER_PAIR * capacity)
        reference = _BatchReferenceCache(capacity)
        stream = correlated_stream(1200, neighbors, seed)
        for step, (j, x, y) in enumerate(stream):
            got = cache.observe(j, x, y)
            expected = reference.observe(j, x, y)
            assert got == expected, f"step {step}: {got} != {expected}"
        # identical traces imply identical stored pairs, line by line
        assert sorted(reference.lines) == cache.known_neighbors()
        for k, pairs in reference.lines.items():
            assert cache.line(k).pairs == pairs

    def test_trace_identical_on_tie_heavy_stream(self):
        """Ties resolve by the stated rule, whatever the arithmetic.

        Collinear, integer-valued observations make the shift and
        augment candidates score equally (and eviction penalties zero)
        in exact arithmetic.  The closed forms and the batch refits
        round differently, ~1e-11 relative, so the decisions agree only
        because both apply the tie rule: scores within ``TIE_RTOL`` of
        each other are equal and resolve REJECT before SHIFT before
        AUGMENT, and near-zero penalties are exactly zero, so the
        victim is the smallest id.  The random-walk streams above
        rarely tie; the simulation pipeline ties constantly.
        """
        capacity, neighbors = 8, 4
        rng = random.Random(77)
        cache = ModelAwareCache(BYTES_PER_PAIR * capacity)
        reference = _BatchReferenceCache(capacity)
        for step in range(1500):
            j = rng.randrange(neighbors)
            x = float(rng.randrange(1, 9))
            if rng.random() < 0.8:
                y = (j + 2.0) * x  # exactly collinear per neighbor
            else:
                y = float(rng.randrange(1, 50))
            got = cache.observe(j, x, y)
            expected = reference.observe(j, x, y)
            assert got == expected, f"step {step}: {got} != {expected}"
        assert sorted(reference.lines) == cache.known_neighbors()
        for k, pairs in reference.lines.items():
            assert cache.line(k).pairs == pairs

    def test_collinear_line_penalty_is_exact_zero(self):
        """Removing the oldest of a collinear line costs exactly nothing —
        the zero must be exact (victim ordering breaks ties on it)."""
        line = CacheLine(0)
        for x in (1.0, 2.0, 3.0, 4.0):
            line.append(x, 3.0 * x)
        assert line.eviction_penalty() == 0.0

    def test_trace_exercises_every_action(self):
        """The golden streams must actually cover the decision space."""
        seen: set[str] = set()
        for capacity, neighbors, seed in [(2, 3, 1), (8, 5, 3), (32, 6, 5)]:
            cache = ModelAwareCache(BYTES_PER_PAIR * capacity)
            for j, x, y in correlated_stream(1200, neighbors, seed):
                seen.add(cache.observe(j, x, y))
        assert seen == set(Action.ALL)


class TestNoPairCopiesOnHotPath:
    def test_no_pair_copies_on_hot_path(self, monkeypatch):
        """observe/benefit/eviction_penalty/model must never materialize
        the pair list; the copying ``pairs`` property is diagnostics-only."""
        copies = {"count": 0}
        original = CacheLine.pairs.fget

        def counting_pairs(self):
            copies["count"] += 1
            return original(self)

        monkeypatch.setattr(CacheLine, "pairs", property(counting_pairs))
        cache = ModelAwareCache(BYTES_PER_PAIR * 16)
        for j, x, y in correlated_stream(800, 4, seed=9):
            cache.observe(j, x, y)
            line = cache.line(j)
            if line is not None:
                line.benefit()
                line.eviction_penalty()
                line.model()
        assert copies["count"] == 0

    def test_policy_pair_count_stays_exact(self):
        """The O(1) total_pairs counter never drifts from ground truth."""
        cache = ModelAwareCache(BYTES_PER_PAIR * 8)
        for j, x, y in correlated_stream(600, 5, seed=11):
            cache.observe(j, x, y)
            assert cache.total_pairs == sum(
                len(cache.line(k)) for k in cache.known_neighbors()
            )
