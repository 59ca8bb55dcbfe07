"""Tests for cache lines and budget accounting (§4).

A line's scores (fit memo, benefit, eviction penalty) are the scalar
oracle's (``OracleLine``); the plain ``CacheLine`` stores pairs and sums.
"""

from __future__ import annotations

import pytest

from repro.models.cache import BYTES_PER_PAIR, CacheLine, pairs_for_budget
from tests.models.scalar_oracle import OracleLine


class TestBudget:
    def test_paper_default(self):
        # 2,048 bytes at 8 bytes per pair -> 256 pairs (§6.1).
        assert pairs_for_budget(2048) == 256

    def test_rounds_down(self):
        assert pairs_for_budget(BYTES_PER_PAIR * 3 + 7) == 3

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            pairs_for_budget(BYTES_PER_PAIR - 1)


class TestCacheLine:
    def test_append_and_order(self):
        line = CacheLine(neighbor_id=4)
        line.append(1.0, 2.0)
        line.append(3.0, 4.0)
        assert line.pairs == [(1.0, 2.0), (3.0, 4.0)]
        assert len(line) == 2

    def test_evict_oldest(self):
        line = CacheLine(neighbor_id=4)
        line.append(1.0, 2.0)
        line.append(3.0, 4.0)
        assert line.evict_oldest() == (1.0, 2.0)
        assert line.pairs == [(3.0, 4.0)]

    def test_evict_empty_raises(self):
        with pytest.raises(IndexError):
            CacheLine(neighbor_id=0).evict_oldest()

    def test_model_cached_and_invalidated(self):
        line = OracleLine(neighbor_id=1)
        line.append(0.0, 0.0)
        line.append(1.0, 2.0)
        first = line.model()
        assert line.model() is first  # cached
        line.append(2.0, 4.0)
        second = line.model()
        assert second is not first
        assert second.slope == pytest.approx(2.0)

    def test_benefit_positive_for_predictable_data(self):
        line = OracleLine(neighbor_id=1)
        for x in range(5):
            line.append(float(x), 10.0 + float(x))
        assert line.benefit() > 0.0

    def test_benefit_empty_is_zero(self):
        assert OracleLine(neighbor_id=0).benefit() == 0.0

    def test_eviction_penalty_single_pair_is_full_benefit(self):
        line = OracleLine(neighbor_id=1)
        line.append(1.0, 5.0)
        assert line.eviction_penalty() == pytest.approx(line.benefit())

    def test_eviction_penalty_zero_for_perfectly_linear_data(self):
        """Dropping one pair from an exact line loses nothing."""
        line = OracleLine(neighbor_id=1)
        for x in range(4):
            line.append(float(x), 2.0 * x + 1.0)
        assert line.eviction_penalty() == pytest.approx(0.0, abs=1e-9)

    def test_eviction_penalty_positive_when_oldest_matters(self):
        """The only pair anchoring the slope is expensive to lose."""
        line = OracleLine(neighbor_id=1)
        line.append(0.0, 0.0)       # anchors the slope
        line.append(10.0, 20.0)
        line.append(10.0, 20.0)
        assert line.eviction_penalty() > 0.0

    def test_iteration(self):
        line = CacheLine(neighbor_id=9)
        line.append(1.0, 1.0)
        assert list(line) == [(1.0, 1.0)]
