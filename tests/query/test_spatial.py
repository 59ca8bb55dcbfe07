"""Tests for spatial predicates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.spatial import (
    Circle,
    Everywhere,
    NAMED_REGIONS,
    Rect,
    named_region,
    random_square,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestRect:
    def test_contains_inclusive_boundaries(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        assert rect.contains(0.0, 0.0)
        assert rect.contains(1.0, 1.0)
        assert not rect.contains(1.0001, 0.5)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(1.0, 0.0, 0.0, 1.0)

    def test_area(self):
        assert Rect(0.0, 0.0, 0.5, 0.2).area == pytest.approx(0.1)


class TestCircle:
    def test_contains(self):
        circle = Circle(0.5, 0.5, 0.25)
        assert circle.contains(0.5, 0.74)
        assert not circle.contains(0.5, 0.76)

    def test_boundary_inclusive(self):
        assert Circle(0.0, 0.0, 1.0).contains(1.0, 0.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Circle(0.0, 0.0, -1.0)


class TestEverywhere:
    @given(unit, unit)
    def test_matches_everything(self, x, y):
        assert Everywhere().contains(x, y)


class TestNamedRegions:
    def test_quadrants_partition_unit_square(self):
        quadrants = [
            named_region(name)
            for name in (
                "NORTH_WEST_QUADRANT",
                "NORTH_EAST_QUADRANT",
                "SOUTH_WEST_QUADRANT",
                "SOUTH_EAST_QUADRANT",
            )
        ]
        point = (0.3, 0.8)
        assert sum(q.contains(*point) for q in quadrants) == 1

    def test_case_insensitive(self):
        assert named_region("south_east_quadrant") == NAMED_REGIONS[
            "SOUTH_EAST_QUADRANT"
        ]

    def test_paper_typo_alias(self):
        """The paper's example query spells it SHOUTH_EAST_QUANDRANT."""
        assert named_region("SHOUTH_EAST_QUANDRANT") == named_region(
            "SOUTH_EAST_QUADRANT"
        )

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            named_region("ATLANTIS")


class TestRandomSquare:
    def test_area_matches(self):
        rng = np.random.default_rng(0)
        square = random_square(0.25, rng)
        assert square.area == pytest.approx(0.25)

    def test_center_in_unit_square(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            square = random_square(0.01, rng)
            cx = (square.x_low + square.x_high) / 2
            cy = (square.y_low + square.y_high) / 2
            assert 0.0 <= cx < 1.0 and 0.0 <= cy < 1.0

    def test_invalid_area(self):
        with pytest.raises(ValueError):
            random_square(0.0, np.random.default_rng(0))

    @given(st.floats(min_value=0.001, max_value=0.9), st.integers(0, 100))
    @settings(max_examples=25)
    def test_side_is_sqrt_area(self, area, seed):
        square = random_square(area, np.random.default_rng(seed))
        side = square.x_high - square.x_low
        assert side == pytest.approx(np.sqrt(area))
