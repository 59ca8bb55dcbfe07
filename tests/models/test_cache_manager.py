"""Tests for the model-aware cache manager's §4 decision procedure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.cache import BYTES_PER_PAIR
from repro.models.cache_manager import ModelAwareCache
from repro.models.policy import Action


def cache_of(pairs: int) -> ModelAwareCache:
    return ModelAwareCache(BYTES_PER_PAIR * pairs)


class TestAdmissionWhileNotFull:
    def test_appends_until_full(self):
        cache = cache_of(3)
        assert cache.observe(1, 0.0, 1.0) == Action.APPEND
        assert cache.observe(2, 0.0, 2.0) == Action.APPEND
        assert cache.observe(1, 1.0, 2.0) == Action.APPEND
        assert cache.is_full
        assert cache.total_pairs == 3

    def test_model_available_after_first_pair(self):
        cache = cache_of(4)
        cache.observe(7, 2.0, 10.0)
        assert cache.estimate(7, 123.0) == pytest.approx(10.0)  # constant model


class TestFullCacheDecisions:
    def test_reject_when_current_model_is_exact(self):
        """New pair on the same exact line: the existing model already
        predicts it perfectly, so the cache keeps its state."""
        cache = cache_of(2)
        cache.observe(1, 0.0, 1.0)
        cache.observe(1, 1.0, 3.0)  # line y = 2x + 1
        assert cache.observe(1, 2.0, 5.0) == Action.REJECT
        assert cache.line(1).pairs == [(0.0, 1.0), (1.0, 3.0)]

    def test_shift_via_fallback_when_no_victim_exists(self):
        """With a single line there is nothing to steal from; the
        fallback time-shifts when the shifted model explains all known
        observations (c_aug) strictly better than the current one.

        Note the paper's benefit algebra: every candidate is evaluated
        on c_aug, where the LSQ fit of c_aug is optimal by definition —
        so tests 1 and 2 only fire at exact ties (e.g. collinear data)
        and SHIFT ordinarily happens through this fallback.
        """
        cache = cache_of(2)
        cache.observe(1, 0.0, 0.0)
        cache.observe(1, 1.0, 10.0)
        # current model y=10x errs by 19 at the new point; the shifted
        # model errs by only ~9.5 at the dropped one.
        action = cache.observe(1, 3.0, 11.0)
        assert action == Action.SHIFT
        assert cache.line(1).pairs == [(1.0, 10.0), (3.0, 11.0)]

    def test_augment_steals_from_noisy_line(self):
        """A line whose model is worthless (penalty ~ 0 benefit) donates
        its oldest pair to a line that gains from growing."""
        cache = cache_of(4)
        # Neighbor 2: noise around zero -- near-zero benefit over no-answer.
        cache.observe(2, 0.0, 0.001)
        cache.observe(2, 1.0, -0.001)
        # Neighbor 1: two points of a steep, imperfectly known line.
        cache.observe(1, 0.0, 5.0)
        cache.observe(1, 1.0, 17.0)
        before = list(cache.line(2).pairs)
        action = cache.observe(1, 2.0, 28.0)
        assert action in (Action.AUGMENT, Action.SHIFT, Action.REJECT)
        if action == Action.AUGMENT:
            assert len(cache.line(1)) == 3
            assert len(cache.line(2) or []) < len(before) or cache.line(2) is None

    def test_capacity_never_exceeded(self):
        cache = cache_of(3)
        for step in range(30):
            cache.observe(step % 4, float(step), float(step * 2 + 1))
            assert cache.total_pairs <= 3


class TestNewcomerRule:
    def test_newcomer_admitted_round_robin(self):
        cache = cache_of(2)
        cache.observe(1, 0.0, 1.0)
        cache.observe(2, 0.0, 2.0)
        action = cache.observe(3, 0.0, 1000.0)  # huge value, no history
        assert action == Action.NEWCOMER
        assert cache.line(3) is not None
        assert cache.total_pairs == 2

    def test_round_robin_cycles_victims(self):
        cache = cache_of(3)
        cache.observe(1, 0.0, 1.0)
        cache.observe(2, 0.0, 2.0)
        cache.observe(3, 0.0, 3.0)
        cache.observe(4, 0.0, 4.0)  # evicts from line 1
        cache.observe(5, 0.0, 5.0)  # evicts from line 2
        survivors = cache.known_neighbors()
        assert 4 in survivors and 5 in survivors
        assert len(survivors) == 3

    def test_newcomer_rejected_when_no_other_line(self):
        cache = cache_of(1)
        cache.observe(1, 0.0, 1.0)
        # the only line belongs to neighbor 1; a newcomer for neighbor 2
        # could only evict... neighbor 1's single pair, which is allowed
        victim_action = cache.observe(2, 0.0, 2.0)
        assert victim_action == Action.NEWCOMER
        assert cache.known_neighbors() == [2]

    def test_huge_newcomer_does_not_trigger_benefit_eviction(self):
        """The x_j^2 gain of a newcomer must not out-bid good models;
        the round-robin rule caps the damage at one pair."""
        cache = cache_of(4)
        for x in range(4):
            cache.observe(1, float(x), 0.01 * x)  # good small-amplitude model
        cache.observe(9, 0.0, 1e6)
        assert len(cache.line(1)) == 3  # exactly one pair sacrificed
        assert len(cache.line(9)) == 1


class TestInvariantsPropertyBased:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            max_size=80,
        ),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_capacity_and_action_invariants(self, observations, capacity):
        cache = cache_of(capacity)
        total_before = 0
        for neighbor, x, y in observations:
            action = cache.observe(neighbor, x, y)
            assert action in Action.ALL
            assert cache.total_pairs <= capacity
            if action == Action.REJECT:
                assert cache.total_pairs == total_before
            elif action == Action.APPEND:
                assert cache.total_pairs == total_before + 1
            else:  # shift / augment / newcomer keep the cache full
                assert cache.total_pairs == capacity
            total_before = cache.total_pairs
        # every line reported by known_neighbors is non-empty
        for neighbor in cache.known_neighbors():
            assert len(cache.line(neighbor)) > 0

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=3,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_single_line_models_stay_fittable(self, ys):
        """A stream for one neighbor always leaves a usable model."""
        cache = cache_of(4)
        for index, y in enumerate(ys):
            cache.observe(1, float(index), y)
        assert cache.model(1) is not None
        assert cache.estimate(1, 0.0) is not None
