"""Property tests: the fleet engine vs the scalar reference.

Hypothesis drives adversarial observation streams — mixed magnitudes
(1e-6 … 1e6, so dominant-sum evictions happen), repeated/collinear
values (exact floating-point ties), tiny neighbor pools and tiny
capacities (dense eviction traffic crossing the
``STATS_SYNC_INTERVAL`` resync boundary) — and asserts the fleet's
sufficient-sum updates, the centered-moment SSE quantities and the
benefit/penalty columns agree with the scalar implementation to exact
float equality, decision-for-decision.  The "block" side is a cache
bound to a one-lane ``ModelAwareCacheFleet``; the fleet-lane case
drives the vectorized ``observe_lanes`` kernel directly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.cache import BYTES_PER_PAIR, STATS_SYNC_INTERVAL
from repro.models.cache_manager import ModelAwareCache
from repro.models.soa import ACTION_NAMES, ModelAwareCacheFleet
from repro.persist.digest import canonical_bytes

#: Adversarial values: exponents spanning twelve orders of magnitude so
#: a single pair can dominate a running sum, plus exact small integers
#: for reproducible collinearity.
_values = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, width=64),
    st.floats(-1e-6, 1e-6, allow_nan=False, width=64),
    st.integers(-5, 5).map(float),
)

_observations = st.lists(
    st.tuples(st.integers(0, 4), _values, _values),
    min_size=1,
    max_size=300,
)

#: As ``_observations``, but half the neighbor pool sits at 2**40: the
#: fleet resolves slots without any table indexed by neighbor id.
_wide_observations = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 4), st.integers(2**40, 2**40 + 4)),
        _values,
        _values,
    ),
    min_size=1,
    max_size=300,
)


def _fleet_cache(cache_bytes: int) -> ModelAwareCache:
    """A cache bound to lane 0 of its own one-lane fleet."""
    cache = ModelAwareCache(cache_bytes)
    cache.bind_fleet(ModelAwareCacheFleet(1, cache_bytes), 0)
    return cache


def _state(cache: ModelAwareCache) -> bytes:
    return canonical_bytes(cache.digest_state())


@given(_observations, st.integers(4, 24))
@settings(max_examples=120, deadline=None)
def test_block_matches_scalar_decision_for_decision(observations, capacity):
    scalar = ModelAwareCache(BYTES_PER_PAIR * capacity)
    block = _fleet_cache(BYTES_PER_PAIR * capacity)
    for j, x, y in observations:
        assert scalar.observe(j, x, y) == block.observe(j, x, y)
    assert _state(block) == _state(scalar)
    # every memoized column agrees exactly after the stream
    for j in scalar.known_neighbors():
        ls, lb = scalar.line(j), block.line(j)
        assert ls.benefit() == lb.benefit()
        assert ls.eviction_penalty() == lb.eviction_penalty()
        assert ls.model_coefficients() == lb.model_coefficients()


@given(_observations)
@settings(max_examples=60, deadline=None)
def test_block_sums_are_bitwise_scalar_sums(observations):
    """Batched sufficient-sum maintenance ≡ RegressionStats add/remove."""
    scalar = ModelAwareCache(BYTES_PER_PAIR * 8)
    block = _fleet_cache(BYTES_PER_PAIR * 8)
    for j, x, y in observations:
        scalar.observe(j, x, y)
        block.observe(j, x, y)
        for k in scalar.known_neighbors():
            ss, bs = scalar.line(k).stats, block.line(k).stats
            assert canonical_bytes(
                (ss.n, ss.sum_x, ss.sum_y, ss.sum_xx, ss.sum_xy, ss.sum_yy)
            ) == canonical_bytes(
                (bs.n, bs.sum_x, bs.sum_y, bs.sum_xx, bs.sum_xy, bs.sum_yy)
            )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_resync_boundary_crossing_stays_identical(seed):
    """Streams long enough to force > STATS_SYNC_INTERVAL evictions per
    line keep the engines identical through the periodic exact resync."""
    rng = np.random.default_rng(seed)
    capacity = 6  # tiny: almost every observation evicts something
    scalar = ModelAwareCache(BYTES_PER_PAIR * capacity)
    block = _fleet_cache(BYTES_PER_PAIR * capacity)
    evictions = 0
    for _ in range(3 * STATS_SYNC_INTERVAL):
        j = int(rng.integers(0, 3))
        x = float(rng.normal(0.0, 100.0))
        y = float(rng.normal(0.0, 100.0))
        a = scalar.observe(j, x, y)
        assert a == block.observe(j, x, y)
        evictions += a in ("shift", "augment", "newcomer")
    assert evictions >= STATS_SYNC_INTERVAL
    assert _state(block) == _state(scalar)


@given(_wide_observations, st.integers(4, 16))
@settings(max_examples=60, deadline=None)
def test_fleet_lane_matches_scalar(observations, capacity):
    """A one-lane fleet driven through observe_lanes replays the scalar
    reference exactly (the vectorized kernel, not just the scalar
    fallbacks, once the cache fills)."""
    scalar = ModelAwareCache(BYTES_PER_PAIR * capacity)
    fleet = ModelAwareCacheFleet(
        1, BYTES_PER_PAIR * capacity, max_lines=8, ring_cap=8
    )
    lane = ModelAwareCache(BYTES_PER_PAIR * capacity)
    lane.bind_fleet(fleet, 0)  # reads the lane's columns
    for j, x, y in observations:
        code = fleet.observe_lanes(
            np.arange(1), np.array([j]), np.array([x]), np.array([y])
        )[0]
        assert ACTION_NAMES[int(code)] == scalar.observe(j, x, y)
    assert _state(lane) == _state(scalar)
    assert lane.total_pairs == scalar.total_pairs
