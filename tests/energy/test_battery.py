"""Tests for the battery model."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.battery import Battery


class TestFiniteBattery:
    def test_draw_reduces_charge(self):
        battery = Battery(10.0)
        assert battery.draw(3.0) == 3.0
        assert battery.charge == pytest.approx(7.0)
        assert battery.spent == pytest.approx(3.0)

    def test_overdraw_clamped(self):
        battery = Battery(2.0)
        assert battery.draw(5.0) == 2.0
        assert battery.depleted
        assert battery.charge == 0.0

    def test_dead_battery_draws_nothing(self):
        battery = Battery(1.0)
        battery.draw(1.0)
        assert battery.draw(1.0) == 0.0

    def test_depletion_callback_fires_once(self):
        fired = []
        battery = Battery(1.0, on_depleted=lambda: fired.append(1))
        battery.draw(0.5)
        assert fired == []
        battery.draw(0.6)
        battery.draw(1.0)
        assert fired == [1]

    def test_zero_capacity_starts_depleted(self):
        fired = []
        battery = Battery(0.0, on_depleted=lambda: fired.append(1))
        assert battery.depleted
        assert fired == [1]

    def test_fraction_remaining(self):
        battery = Battery(4.0)
        battery.draw(1.0)
        assert battery.fraction_remaining == pytest.approx(0.75)

    def test_negative_draw_rejected(self):
        with pytest.raises(ValueError):
            Battery(1.0).draw(-0.1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Battery(-1.0)

    @pytest.mark.parametrize("capacity", [math.inf, math.nan, -math.inf])
    def test_non_finite_capacity_rejected(self, capacity):
        """``inf`` would make ``fraction_remaining`` NaN -> 0.0 (every
        representative resigns at every §5.1 energy check); ``nan``
        would leave a charge that never depletes.  ``None`` is the
        infinite battery."""
        with pytest.raises(ValueError, match="finite"):
            Battery(capacity)

    def test_nan_draw_rejected(self):
        battery = Battery(5.0)
        with pytest.raises(ValueError):
            battery.draw(math.nan)
        assert battery.charge == 5.0 and battery.spent == 0.0
        with pytest.raises(ValueError):
            Battery(None).draw(math.nan)

    def test_inf_draw_depletes(self):
        battery = Battery(5.0)
        assert battery.draw(math.inf) == 5.0
        assert battery.depleted and battery.fraction_remaining == 0.0

    def test_can_afford(self):
        battery = Battery(2.0)
        assert battery.can_afford(2.0)
        assert not battery.can_afford(2.1)

    @given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), max_size=30))
    @settings(max_examples=50)
    def test_charge_never_negative_and_spent_bounded(self, draws):
        battery = Battery(25.0)
        for amount in draws:
            battery.draw(amount)
            assert battery.charge is not None and battery.charge >= 0.0
            assert battery.spent <= 25.0 + 1e-9


class TestInfiniteBattery:
    def test_never_depletes(self):
        battery = Battery(None)
        battery.draw(1e12)
        assert not battery.depleted
        assert battery.infinite
        assert battery.charge is None
        assert battery.fraction_remaining == 1.0

    def test_tracks_spending(self):
        battery = Battery(None)
        battery.draw(2.5)
        battery.draw(2.5)
        assert battery.spent == pytest.approx(5.0)

    def test_can_afford_anything(self):
        assert Battery(None).can_afford(1e18)
