"""The §4 tie rule, one constructed stream per clause.

:data:`~repro.models.cache.TIE_RTOL` states how the cache resolves
scores that differ only by rounding noise: benefits within
``tol = TIE_RTOL · max(baseline, 1)`` are equal and resolve REJECT
before SHIFT before AUGMENT, and an eviction penalty within tolerance
of zero is exactly ``0.0``, so equal penalties evict the lowest
neighbor id.  Each stream below sits on one clause, and every case runs
on the scalar oracle (``tests/models/scalar_oracle.py``) and on all
three ways into the fleet: a standalone cache (``unbound``: its private
one-lane fleet), a cache bound to lane 1 of a shared
``ModelAwareCacheFleet`` (``fleet-bound``; both take the fleet's
per-lane path) and the fleet's vectorized lane sweep ``observe_lanes``
(``observe_batch``).

Line ``0`` is the observed line: ``y = 2x + 1`` at ``x = 1, 2, 3``,
then ``(4, 9 + δ)``.  In exact arithmetic the three candidates then
differ by ``0.175δ²`` (augment over current) and ``0.078δ²`` (augment
over shift), against ``tol = 4.1e-8``, so ``δ`` alone places the
decision on either side of the tolerance.  The collinear lines have
exact-arithmetic penalties of zero; their closed forms round to
``3.6e-15``, ``-8.9e-16`` and ``-1.8e-15``, so without the penalty
snap the victim would not be the lowest id.  Every test first checks
its margins with the batch-refit formulas, so a stream that drifted off
its clause fails loudly instead of passing vacuously.
"""

from __future__ import annotations

import pytest

from repro.models.cache import BYTES_PER_PAIR, TIE_RTOL
from repro.models.cache_manager import ModelAwareCache
from repro.models.policy import Action
from repro.models.regression import fit_line, mean_sse_of_model, no_answer_sse
from repro.models.soa import ACTION_NAMES, ModelAwareCacheFleet
from tests.models.conftest import lane_scores
from tests.models.scalar_oracle import ScalarOracleCache

ENGINES = ("oracle", "unbound", "fleet-bound", "observe_batch")

#: The observed line, exactly collinear until its new pair arrives.
LINE_0 = [(1.0, 3.0), (2.0, 5.0), (3.0, 7.0)]


def collinear(slope: float, intercept: float, xs) -> list[tuple[float, float]]:
    return [(x, slope * x + intercept) for x in xs]


#: Exactly collinear lines whose closed-form penalties are rounding
#: noise of mixed sign (see the module docstring).
LINE_3 = collinear(1.4, -0.75, (0.8, 4.6, 4.9))
LINE_5 = collinear(0.99, -1.01, (0.9, 1.8, 4.9))
LINE_7 = collinear(1.02, -0.27, (3.9, 4.0, 1.4))


def run(engine: str, lines: dict[int, list], new_pair: tuple[float, float]):
    """Fill a cache to its budget with ``lines``, then offer ``new_pair``
    to line 0.  Returns ``(action, cache)``."""
    budget = BYTES_PER_PAIR * sum(len(pairs) for pairs in lines.values())
    if engine == "oracle":
        cache = ScalarOracleCache(budget)
    else:
        cache = ModelAwareCache(budget)
        if engine != "unbound":
            cache.bind_fleet(ModelAwareCacheFleet(2, budget), 1)
    observe = cache.observe
    if engine == "observe_batch":
        def observe(j, x, y):
            return ACTION_NAMES[int(cache._fleet.observe_lanes([1], [j], [x], [y])[0])]
    for j, pairs in lines.items():
        for x, y in pairs:
            assert observe(j, x, y) == Action.APPEND
    return observe(0, *new_pair), cache


def penalty(cache, neighbor_id: int) -> float:
    """The eviction penalty of a line, as the cache's engine scores it."""
    if isinstance(cache, ScalarOracleCache):
        return cache.line(neighbor_id).eviction_penalty()
    return lane_scores(cache, neighbor_id)[2]


def scores(line, pair):
    """Batch-refit ``(b_c, b_s, b_a, tol)`` for offering ``pair`` to ``line``."""
    augmented = line + [pair]
    baseline = no_answer_sse(augmented)
    b_c = baseline - mean_sse_of_model(augmented, fit_line(line))
    b_s = baseline - mean_sse_of_model(augmented, fit_line(line[1:] + [pair]))
    b_a = baseline - mean_sse_of_model(augmented, fit_line(augmented))
    return b_c, b_s, b_a, TIE_RTOL * max(baseline, 1.0)


@pytest.mark.parametrize("engine", ENGINES)
def test_three_way_tie_rejects(engine):
    new = (4.0, 9.0 + 1e-4)
    b_c, b_s, b_a, tol = scores(LINE_0, new)
    # All three within tol, but not equal: a strict comparison would
    # see augment beat current and shift.
    assert 0.0 < b_a - b_c < tol / 10
    assert 0.0 < b_a - b_s < tol / 10
    action, cache = run(engine, {0: LINE_0, 5: LINE_5}, new)
    assert action == Action.REJECT
    assert list(cache.line(0).pairs) == LINE_0


@pytest.mark.parametrize("engine", ENGINES)
def test_shift_and_augment_tied_above_current_shift(engine):
    # The oldest pair lies (within 1e-5) on the fit of the other pairs
    # and the new one, so shifting it out or keeping it fits c_aug
    # equally well; the current fit misses the new pair by far.
    line = [(0.0, 1.0 + 1e-5), (1.0, 1.0), (2.0, 3.0)]
    new = (3.0, 2.0)
    b_c, b_s, b_a, tol = scores(line, new)
    assert b_a - b_c > 1e6 * tol
    assert 0.0 < b_a - b_s < tol / 10
    # Line 5 is a zero-penalty victim, so augmenting was affordable.
    action, cache = run(engine, {0: line, 5: LINE_5}, new)
    assert action == Action.SHIFT
    assert list(cache.line(0).pairs) == line[1:] + [new]
    assert len(cache.line(5)) == len(LINE_5)


@pytest.mark.parametrize("engine", ENGINES)
def test_collinear_penalties_are_zero_and_lowest_id_is_evicted(engine):
    new = (4.0, 9.0 + 1e-2)
    b_c, b_s, b_a, tol = scores(LINE_0, new)
    assert b_a - b_s > 100 * tol
    # Inserted out of id order, so neither insertion order nor slot
    # order can stand in for the id tie-break.
    lines = {0: LINE_0, 7: LINE_7, 3: LINE_3, 5: LINE_5}
    action, cache = run(engine, lines, new)
    assert action == Action.AUGMENT
    assert list(cache.line(0).pairs) == LINE_0 + [new]
    assert list(cache.line(3).pairs) == LINE_3[1:]
    assert list(cache.line(5).pairs) == LINE_5
    assert list(cache.line(7).pairs) == LINE_7
    # The untouched lines' penalties were scored for the victim scan.
    assert penalty(cache, 5) == 0.0
    assert penalty(cache, 7) == 0.0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "delta,expected",
    [
        # augment beats current by 1.5 tol: test 1 fails; augment beats
        # shift by only 0.7 tol, so test 2 takes the tie → SHIFT.
        (6e-4, Action.SHIFT),
        # augment beats shift by 1.9 tol → the strict winner, AUGMENT.
        (1e-3, Action.AUGMENT),
    ],
)
def test_margin_just_above_tol_picks_the_strict_winner(engine, delta, expected):
    new = (4.0, 9.0 + delta)
    b_c, b_s, b_a, tol = scores(LINE_0, new)
    assert tol < b_a - b_c < 5 * tol
    if expected == Action.SHIFT:
        assert b_a - b_s < tol
    else:
        assert tol < b_a - b_s < 2 * tol
    action, cache = run(engine, {0: LINE_0, 5: LINE_5}, new)
    assert action == expected
    expected_victim = LINE_5[1:] if expected == Action.AUGMENT else LINE_5
    assert list(cache.line(5).pairs) == expected_victim


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "eps,expected", [(1e-8, Action.REJECT), (1e-7, Action.SHIFT)]
)
def test_without_a_victim_shift_must_beat_current_by_more_than_tol(
    engine, eps, expected
):
    # Constant x: every fit is the mean of its y values.  The shift
    # mean moves toward the c_aug mean by eps / 3, so shift beats
    # current by ~1.1 eps: 0.2 tol, then 2.2 tol.
    line = [(1.0, 0.0), (1.0, 10.0), (1.0, 10.0)]
    new = (1.0, -eps)
    b_c, b_s, b_a, tol = scores(line, new)
    if expected == Action.REJECT:
        assert 0.0 < b_s - b_c < tol / 2
    else:
        assert 2 * tol < b_s - b_c < 3 * tol
    # Line 5 is the only victim; its penalty (100) exceeds the gain.
    assert b_a - b_s < 100.0
    action, cache = run(engine, {0: line, 5: [(1.0, 10.0)]}, new)
    assert action == expected
    assert len(cache.line(5)) == 1


def test_negative_neighbor_ids_are_refused():
    """A negative id would match a free slot: the fleet's ``ids``
    column marks every free slot with ``-1``."""
    fleet = ModelAwareCacheFleet(2, 64, max_lines=4)
    lane = ModelAwareCache(64)
    lane.bind_fleet(fleet, 0)  # reads lane 0's columns
    fleet.observe_lanes([0, 1], [63, 1], [1.0, 1.0], [2.0, 2.0])
    for call in (
        lambda: fleet.observe_lanes([0, 1], [-1, 1], [1.0, 1.0], [2.0, 2.0]),
        lambda: fleet.observe_lanes([0], [-1], [1.0], [2.0]),
        lambda: fleet.observe(0, -1, 1.0, 2.0),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            call()
    assert fleet.known_neighbors(0) == [63]
    assert tuple(lane.line(63).pairs) == ((1.0, 2.0),)
    assert int(fleet.total.sum()) == 2
