"""Tests for the robust regression alternatives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.metrics import AbsoluteError, RelativeError, SumSquaredError
from repro.models.regression import fit_line, sse_of_model
from repro.models.robust import fit_for_metric, fit_line_lad, theil_sen

coordinate = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
pair_lists = st.lists(st.tuples(coordinate, coordinate), min_size=3, max_size=25)


class TestTheilSen:
    def test_exact_line_recovered(self):
        pairs = [(x, 2.0 * x - 1.0) for x in range(6)]
        model = theil_sen(pairs)
        assert model.slope == pytest.approx(2.0)
        assert model.intercept == pytest.approx(-1.0)

    def test_single_outlier_ignored(self):
        """The defining property: one corrupted reading does not move
        the fit, unlike least squares."""
        pairs = [(float(x), 3.0 * x) for x in range(9)]
        pairs[8] = (8.0, 1e6)  # a garbage sensor reading at the extreme
        robust = theil_sen(pairs)
        lsq = fit_line(pairs)
        assert robust.slope == pytest.approx(3.0, abs=0.01)
        assert abs(lsq.slope - 3.0) > 100  # least squares is wrecked

    def test_constant_x_falls_back_to_median(self):
        model = theil_sen([(1.0, 2.0), (1.0, 4.0), (1.0, 100.0)])
        assert model.slope == 0.0
        assert model.intercept == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            theil_sen([])

    def test_subnormal_x_gap_stays_finite(self):
        """An x gap so small that the pairwise slope overflows counts
        as one x value, not as an infinite slope."""
        model = theil_sen([(0.0, 0.0), (0.0, 0.0), (2.225073858507e-311, 1.0)])
        assert model.slope == 0.0
        assert model.intercept == 0.0

    @given(pair_lists)
    @settings(max_examples=40, deadline=None)
    def test_finite_on_arbitrary_input(self, pairs):
        model = theil_sen(pairs)
        assert np.isfinite(model.slope)
        assert np.isfinite(model.intercept)


class TestLeastAbsoluteDeviations:
    def test_exact_line_recovered(self):
        pairs = [(x, 0.5 * x + 2.0) for x in range(5)]
        model = fit_line_lad(pairs)
        assert model.slope == pytest.approx(0.5, abs=1e-6)
        assert model.intercept == pytest.approx(2.0, abs=1e-6)

    def test_less_outlier_sensitive_than_lsq(self):
        pairs = [(float(x), x) for x in range(11)]
        pairs[5] = (5.0, 500.0)
        lad = fit_line_lad(pairs)
        lsq = fit_line(pairs)
        truth_errors_lad = sum(abs(y - lad.predict(x)) for x, y in pairs[:5])
        truth_errors_lsq = sum(abs(y - lsq.predict(x)) for x, y in pairs[:5])
        assert truth_errors_lad < truth_errors_lsq

    def test_lad_objective_not_worse_than_lsq_start(self):
        rng = np.random.default_rng(0)
        pairs = [(float(x), 2 * x + float(rng.normal(0, 1))) for x in range(20)]
        lad = fit_line_lad(pairs)
        lsq = fit_line(pairs)
        lad_cost = sum(abs(y - lad.predict(x)) for x, y in pairs)
        lsq_cost = sum(abs(y - lsq.predict(x)) for x, y in pairs)
        assert lad_cost <= lsq_cost + 1e-6

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fit_line_lad([])
        with pytest.raises(ValueError):
            fit_line_lad([(0.0, 0.0)], iterations=0)


class TestFitForMetric:
    def test_dispatch(self):
        pairs = [(float(x), 2.0 * x) for x in range(5)]
        sse_fit = fit_for_metric(pairs, SumSquaredError())
        assert sse_fit == fit_line(pairs)
        lad_fit = fit_for_metric(pairs, AbsoluteError())
        assert lad_fit.slope == pytest.approx(2.0, abs=1e-6)
        ts_fit = fit_for_metric(pairs, RelativeError())
        assert ts_fit.slope == pytest.approx(2.0)

    @given(pair_lists)
    @settings(max_examples=30, deadline=None)
    def test_sse_dispatch_is_lsq_optimal(self, pairs):
        model = fit_for_metric(pairs, SumSquaredError())
        lsq = fit_line(pairs)
        assert sse_of_model(pairs, model) == pytest.approx(
            sse_of_model(pairs, lsq)
        )
