"""Tests for link-loss models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.links import DistanceLoss, GlobalLoss, PERFECT_LINKS, PerLinkLoss
from repro.network.topology import Topology


class TestGlobalLoss:
    def test_zero_always_delivers(self):
        rng = np.random.default_rng(0)
        assert all(PERFECT_LINKS.delivered(0, 1, rng) for _ in range(100))

    def test_one_never_delivers(self):
        model = GlobalLoss(1.0)
        rng = np.random.default_rng(0)
        assert not any(model.delivered(0, 1, rng) for _ in range(100))

    def test_rate_statistics(self):
        """Empirical delivery rate tracks 1 - P_loss."""
        model = GlobalLoss(0.3)
        rng = np.random.default_rng(42)
        delivered = sum(model.delivered(0, 1, rng) for _ in range(20_000))
        assert delivered / 20_000 == pytest.approx(0.7, abs=0.02)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            GlobalLoss(1.5)


class TestPerLinkLoss:
    def test_override_applies_to_direction(self):
        model = PerLinkLoss(base=0.0)
        model.set_link(2, 3, 1.0)
        rng = np.random.default_rng(0)
        assert not model.delivered(2, 3, rng)
        assert model.delivered(3, 2, rng)  # reverse direction unaffected

    def test_base_used_without_override(self):
        model = PerLinkLoss(base=1.0, overrides={(0, 1): 0.0})
        rng = np.random.default_rng(0)
        assert model.delivered(0, 1, rng)
        assert not model.delivered(1, 0, rng)

    def test_invalid_override(self):
        with pytest.raises(ValueError):
            PerLinkLoss(overrides={(0, 1): 2.0})


class TestDistanceLoss:
    def topo(self) -> Topology:
        return Topology([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], ranges=1.0)

    def test_zero_distance_floor(self):
        model = DistanceLoss(self.topo(), floor=0.1, ceiling=0.9)
        assert model.loss_probability(0, 1) == pytest.approx(0.5)
        assert model.loss_probability(0, 2) == pytest.approx(0.9)

    def test_beyond_range_is_certain_loss(self):
        topo = Topology([(0.0, 0.0), (5.0, 0.0)], ranges=1.0)
        model = DistanceLoss(topo)
        assert model.loss_probability(0, 1) == 1.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            DistanceLoss(self.topo(), floor=0.9, ceiling=0.1)
