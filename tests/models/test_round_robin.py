"""Tests for the round-robin / FIFO baseline cache."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.cache import BYTES_PER_PAIR
from repro.models.policy import Action
from repro.models.round_robin import RoundRobinCache


def cache_of(pairs: int) -> RoundRobinCache:
    return RoundRobinCache(BYTES_PER_PAIR * pairs)


class TestFifoSemantics:
    def test_admits_everything(self):
        cache = cache_of(2)
        assert cache.observe(1, 0.0, 1.0) == Action.APPEND
        assert cache.observe(2, 0.0, 2.0) == Action.APPEND
        assert cache.observe(3, 0.0, 3.0) == Action.SHIFT  # evicted oldest

    def test_evicts_globally_oldest(self):
        cache = cache_of(3)
        cache.observe(1, 0.0, 1.0)   # oldest
        cache.observe(2, 0.0, 2.0)
        cache.observe(1, 1.0, 3.0)
        cache.observe(3, 0.0, 4.0)   # evicts neighbor 1's first pair
        assert cache.line(1).pairs == [(1.0, 3.0)]
        assert cache.total_pairs == 3

    def test_line_removed_when_emptied(self):
        cache = cache_of(1)
        cache.observe(1, 0.0, 1.0)
        cache.observe(2, 0.0, 2.0)
        assert cache.line(1) is None
        assert cache.known_neighbors() == [2]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.floats(min_value=-10, max_value=10, allow_nan=False),
            ),
            max_size=60,
        ),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_capacity_respected_and_newest_survives(self, stream, capacity):
        cache = cache_of(capacity)
        for neighbor, value in stream:
            cache.observe(neighbor, 0.5, value)
            assert cache.total_pairs <= capacity
        if stream:
            last_neighbor, last_value = stream[-1]
            line = cache.line(last_neighbor)
            assert line is not None
            assert line.pairs[-1] == (0.5, last_value)
