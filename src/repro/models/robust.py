"""Robust alternatives to the least-squares fit (§4's closing remark).

Lemma 1's closed form is sse-optimal, but the paper notes that "there
is a vast literature on linear regression that can be of use for
optimizing other error metrics such as relative or absolute error".
This module supplies two such fits:

* :func:`theil_sen` — the Theil–Sen estimator: the median of pairwise
  slopes, intercept the median residual.  It tolerates up to ~29%
  arbitrarily corrupted observations, which matters when a sensor
  occasionally reports garbage (a real WSN failure mode the sse fit is
  defenseless against).
* :func:`fit_line_lad` — least absolute deviations via iteratively
  reweighted least squares, the optimizer matching the absolute-error
  metric of §3.

Both return the same :class:`~repro.models.regression.LinearModel`, so
they slot anywhere the Lemma 1 fit does.  :func:`fit_for_metric` picks
the natural fit for a metric by name.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

from repro.models.metrics import ErrorMetric
from repro.models.regression import LinearModel, fit_line

__all__ = ["theil_sen", "fit_line_lad", "fit_for_metric"]

#: IRLS iterations for the LAD fit; convergence is geometric.
_LAD_ITERATIONS = 25
#: Residual floor preventing infinite IRLS weights.
_LAD_EPSILON = 1e-9


def theil_sen(pairs: Sequence[tuple[float, float]]) -> LinearModel:
    """The Theil–Sen line: median pairwise slope, median-residual intercept.

    Degenerate inputs (fewer than two distinct x values) fall back to
    the constant model, matching Lemma 1's special case.  Two x values
    so close that their slope overflows count as one, and a line whose
    intercept overflows falls back the same way, so the fit is always
    finite.

    Raises
    ------
    ValueError
        If ``pairs`` is empty.
    """
    n = len(pairs)
    if n == 0:
        raise ValueError("cannot fit a model to an empty cache line")
    slopes = []
    for i in range(n):
        xi, yi = pairs[i]
        for j in range(i + 1, n):
            xj, yj = pairs[j]
            if xi != xj:
                slope = (yj - yi) / (xj - xi)
                if math.isfinite(slope):
                    slopes.append(slope)
    constant = LinearModel(slope=0.0, intercept=statistics.median(y for _, y in pairs))
    if not slopes:
        return constant
    slope = statistics.median(slopes)
    intercept = statistics.median(y - slope * x for x, y in pairs)
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        return constant
    return LinearModel(slope=slope, intercept=intercept)


def fit_line_lad(
    pairs: Sequence[tuple[float, float]], iterations: int = _LAD_ITERATIONS
) -> LinearModel:
    """Least-absolute-deviations fit via iteratively reweighted LSQ.

    Starts from the Lemma 1 solution and reweights each observation by
    the reciprocal of its current absolute residual; fixed points of
    this iteration are LAD-optimal lines.

    Raises
    ------
    ValueError
        If ``pairs`` is empty or ``iterations`` is not positive.
    """
    if not pairs:
        raise ValueError("cannot fit a model to an empty cache line")
    if iterations <= 0:
        raise ValueError(f"iterations must be positive, got {iterations}")
    model = fit_line(pairs)
    for _ in range(iterations):
        weights = [
            1.0 / max(_LAD_EPSILON, abs(y - model.predict(x))) for x, y in pairs
        ]
        total = sum(weights)
        sum_x = sum(w * x for w, (x, _) in zip(weights, pairs))
        sum_y = sum(w * y for w, (_, y) in zip(weights, pairs))
        sum_xx = sum(w * x * x for w, (x, _) in zip(weights, pairs))
        sum_xy = sum(w * x * y for w, (x, y) in zip(weights, pairs))
        denominator = total * sum_xx - sum_x * sum_x
        if abs(denominator) <= 1e-12 * max(1.0, total * sum_xx):
            return LinearModel(slope=0.0, intercept=sum_y / total)
        slope = (total * sum_xy - sum_x * sum_y) / denominator
        intercept = (sum_y - slope * sum_x) / total
        new_model = LinearModel(slope=slope, intercept=intercept)
        if (
            abs(new_model.slope - model.slope) < 1e-12
            and abs(new_model.intercept - model.intercept) < 1e-12
        ):
            return new_model
        model = new_model
    return model


def fit_for_metric(
    pairs: Sequence[tuple[float, float]], metric: ErrorMetric
) -> LinearModel:
    """The natural line fit for ``metric``: sse → Lemma 1, absolute →
    LAD, relative → Theil–Sen (robust to the small-|x| blow-ups the
    relative metric amplifies)."""
    name = metric.name
    if name == "absolute":
        return fit_line_lad(pairs)
    if name == "relative":
        return theil_sen(pairs)
    return fit_line(pairs)
