"""Tests for the measurement dataset container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.series import Dataset


class TestDataset:
    def test_shape_accessors(self):
        data = Dataset([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert data.n_nodes == 2
        assert data.length == 3

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            Dataset([1.0, 2.0])
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 5)))

    def test_value_floors_time(self):
        data = Dataset([[10.0, 20.0, 30.0]])
        assert data.value(0, 0.0) == 10.0
        assert data.value(0, 1.9) == 20.0
        assert data.value(0, 2.0) == 30.0

    def test_value_clamps_past_end(self):
        """Sensors keep reporting their latest reading after the series ends."""
        data = Dataset([[10.0, 20.0]])
        assert data.value(0, 99.0) == 20.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Dataset([[1.0]]).value(0, -0.5)

    def test_infinite_time_reads_the_last_sample(self):
        data = Dataset([[10.0, 20.0, 30.0], [1.0, 2.0, 3.0]])
        assert data.value(0, float("inf")) == 30.0
        assert data.values_at([1, 0], float("inf")) == [3.0, 30.0]

    def test_nan_time_refused_by_name(self):
        data = Dataset([[10.0, 20.0]])
        with pytest.raises(ValueError, match="NaN"):
            data.value(0, float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            data.values_at([0], float("nan"))

    def test_values_at_gathers_value(self):
        data = Dataset(np.arange(12.0).reshape(3, 4))
        for time in (0.0, 2.5, 99.0):
            got = data.values_at([2, 0, 2], time)
            assert got == [data.value(i, time) for i in (2, 0, 2)]
            assert all(type(v) is float for v in got)
        with pytest.raises(ValueError):
            data.values_at([0], -0.5)

    def test_series_row(self):
        data = Dataset([[1.0, 2.0], [3.0, 4.0]])
        assert list(data.series(1)) == [3.0, 4.0]
