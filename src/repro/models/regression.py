"""Least-squares line fitting (Lemma 1 of the paper).

A node models its neighbor's measurement as a linear projection of its
own: ``x̂_j(t) = a_ij * x_i(t) + b_ij``.  Given ``n`` cached pairs
``(x_i(t_k), x_j(t_k))`` the sse-optimal parameters are the classic
least-squares regression line:

    a* = (n * Σ x y - Σ x * Σ y) / (n * Σ x² - (Σ x)²)
    b* = (Σ y - a* Σ x) / n

with the degenerate case — constant ``x_i`` (which subsumes ``n = 1``)
— handled as ``a* = 0``, ``b* = mean(x_j)`` exactly as the paper
specifies.

The batch helpers operate on plain pair sequences in a single pass.
:class:`RegressionStats` is the incremental counterpart: the sufficient
statistics ``(n, Σx, Σy, Σx², Σxy, Σy²)`` updated in O(1) per
``add``/``remove``, from which the fit and the sse of *any* model
follow in closed form:

    Σ (y - a x - b)² = Σy² - 2aΣxy - 2bΣy + a²Σx² + 2abΣx + nb²

This is what makes the cache manager's per-observation decision O(1)
instead of O(line length).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "LinearModel",
    "RegressionStats",
    "fit_coefficients",
    "fit_line",
    "model_sse",
    "sse_of_model",
    "mean_sse_of_model",
    "no_answer_sse",
]

#: Relative tolerance for declaring the regression denominator degenerate.
_DEGENERATE_RTOL = 1e-12


@dataclass(frozen=True)
class LinearModel:
    """The fitted projection ``x̂_j = slope * x_i + intercept``."""

    slope: float
    intercept: float

    def predict(self, x: float) -> float:
        """Estimate the neighbor's value from our own measurement ``x``."""
        return self.slope * x + self.intercept

    def __iter__(self):
        """Unpacking support: ``a, b = model``."""
        yield self.slope
        yield self.intercept


def fit_coefficients(
    n: int, sum_x: float, sum_y: float, sum_xx: float, sum_xy: float
) -> tuple[float, float]:
    """The Lemma 1 ``(slope, intercept)`` from raw sums.

    The allocation-free kernel behind :meth:`RegressionStats.fit` and
    :func:`fit_line`; the cache manager's hot path calls it directly on
    locally-adjusted sums to avoid constructing intermediate objects.
    ``n`` must be positive.
    """
    nsxx = n * sum_xx
    sxsx = sum_x * sum_x
    denominator = nsxx - sxsx
    # Constant x (includes n == 1): slope 0, intercept = mean of x_j.
    # The scale is max(1.0, n·Σx², (Σx)²), spelled out to stay call-free.
    # Cauchy–Schwarz makes the true denominator non-negative, so a
    # non-positive value is pure rounding — degenerate as well (the
    # condition below subsumes it, since the threshold is positive).
    scale = nsxx if nsxx > sxsx else sxsx
    if scale < 1.0:
        scale = 1.0
    if denominator <= _DEGENERATE_RTOL * scale:
        return 0.0, sum_y / n
    slope = (n * sum_xy - sum_x * sum_y) / denominator
    return slope, (sum_y - slope * sum_x) / n


def model_sse(
    n: int,
    sum_x: float,
    sum_y: float,
    sum_xx: float,
    sum_xy: float,
    sum_yy: float,
    slope: float,
    intercept: float,
) -> float:
    """Total squared error of ``(slope, intercept)`` from raw sums.

        Σ (y - a x - b)² = C_yy - 2a·C_xy + a²·C_xx + n·r̄²

    where ``C_**`` are the *centered* second moments and
    ``r̄ = ȳ - a·x̄ - b`` is the mean residual.  Mathematically this
    equals the raw-sum expansion ``Σy² - 2aΣxy - ... + nb²``, but the
    centered form cancels at the scale of the residuals instead of the
    scale of ``a²Σx²`` — for a near-exact fit the raw expansion's error
    is ~eps·a²Σx², which is what used to leak out as a spuriously
    positive sse on two-point lines.  Clamped at zero: even the
    centered form can dip a few ulps negative.
    """
    if n <= 0:
        return 0.0
    mean_x = sum_x / n
    mean_y = sum_y / n
    c_xx = sum_xx - sum_x * mean_x
    c_xy = sum_xy - sum_x * mean_y
    c_yy = sum_yy - sum_y * mean_y
    mean_residual = mean_y - slope * mean_x - intercept
    total = (
        c_yy
        - 2.0 * slope * c_xy
        + slope * slope * c_xx
        + n * mean_residual * mean_residual
    )
    return total if total > 0.0 else 0.0


class RegressionStats:
    """Sufficient statistics of a pair multiset, updatable in O(1).

    Carries ``(n, Σx, Σy, Σx², Σxy, Σy²)``; everything the cache
    manager needs — the Lemma 1 fit, the sse of an arbitrary model, the
    no-answer sse — is a closed form over these six numbers, so a cache
    line can score admission candidates without touching its pairs.

    ``remove`` subtracts a previously-added pair; repeated removals
    accumulate floating-point drift, which callers bound by periodically
    rebuilding via :meth:`from_pairs` (see ``CacheLine``).
    """

    __slots__ = ("n", "sum_x", "sum_y", "sum_xx", "sum_xy", "sum_yy")

    def __init__(
        self,
        n: int = 0,
        sum_x: float = 0.0,
        sum_y: float = 0.0,
        sum_xx: float = 0.0,
        sum_xy: float = 0.0,
        sum_yy: float = 0.0,
    ) -> None:
        self.n = n
        self.sum_x = sum_x
        self.sum_y = sum_y
        self.sum_xx = sum_xx
        self.sum_xy = sum_xy
        self.sum_yy = sum_yy

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "RegressionStats":
        """Exact statistics of ``pairs``, summed in iteration order."""
        stats = cls()
        for x, y in pairs:
            stats.add(x, y)
        return stats

    def add(self, x: float, y: float) -> None:
        """Fold one observation in."""
        self.n += 1
        self.sum_x += x
        self.sum_y += y
        self.sum_xx += x * x
        self.sum_xy += x * y
        self.sum_yy += y * y

    def remove(self, x: float, y: float) -> None:
        """Subtract a previously-added observation.

        Raises
        ------
        ValueError
            If the statistics are already empty.
        """
        if self.n == 0:
            raise ValueError("cannot remove a pair from empty statistics")
        self.n -= 1
        if self.n == 0:
            # Snap to exact zero: nothing is left, so no drift survives.
            self.sum_x = self.sum_y = 0.0
            self.sum_xx = self.sum_xy = self.sum_yy = 0.0
            return
        self.sum_x -= x
        self.sum_y -= y
        self.sum_xx -= x * x
        self.sum_xy -= x * y
        self.sum_yy -= y * y

    def copy(self) -> "RegressionStats":
        """An independent copy (six floats; O(1))."""
        return RegressionStats(
            self.n, self.sum_x, self.sum_y, self.sum_xx, self.sum_xy, self.sum_yy
        )

    def with_pair(self, x: float, y: float) -> "RegressionStats":
        """A copy with ``(x, y)`` added — the hypothetical augmented line."""
        stats = self.copy()
        stats.add(x, y)
        return stats

    def without_pair(self, x: float, y: float) -> "RegressionStats":
        """A copy with ``(x, y)`` subtracted — a hypothetical eviction."""
        stats = self.copy()
        stats.remove(x, y)
        return stats

    def fit(self) -> LinearModel:
        """The sse-optimal line for these statistics (Lemma 1).

        Uses the same degenerate-denominator rule as :func:`fit_line`.

        Raises
        ------
        ValueError
            If the statistics are empty.
        """
        if self.n == 0:
            raise ValueError("cannot fit a model to an empty cache line")
        slope, intercept = fit_coefficients(
            self.n, self.sum_x, self.sum_y, self.sum_xx, self.sum_xy
        )
        return LinearModel(slope=slope, intercept=intercept)

    def sse(self, model: LinearModel) -> float:
        """Total squared error of ``model``, in closed form (clamped at 0)."""
        return model_sse(
            self.n,
            self.sum_x,
            self.sum_y,
            self.sum_xx,
            self.sum_xy,
            self.sum_yy,
            model.slope,
            model.intercept,
        )

    def no_answer_sse(self) -> float:
        """Average squared error of refusing to answer: ``Σy² / n``.

        Raises
        ------
        ValueError
            If the statistics are empty.
        """
        if self.n == 0:
            raise ValueError("no-answer sse over an empty cache line is undefined")
        return max(self.sum_yy, 0.0) / self.n

    def __repr__(self) -> str:
        return (
            f"RegressionStats(n={self.n}, sum_x={self.sum_x}, sum_y={self.sum_y}, "
            f"sum_xx={self.sum_xx}, sum_xy={self.sum_xy}, sum_yy={self.sum_yy})"
        )


def fit_line(pairs: Sequence[tuple[float, float]]) -> LinearModel:
    """Fit the sse-optimal line through ``pairs`` (Lemma 1).

    Delegates to :meth:`RegressionStats.fit` so the batch and
    incremental paths share one closed form (and one degeneracy rule).

    Parameters
    ----------
    pairs:
        Non-empty sequence of ``(x_i, x_j)`` observations.

    Raises
    ------
    ValueError
        If ``pairs`` is empty — an empty cache line has no model.
    """
    if len(pairs) == 0:
        raise ValueError("cannot fit a model to an empty cache line")
    return RegressionStats.from_pairs(pairs).fit()


def sse_of_model(
    pairs: Iterable[tuple[float, float]], model: LinearModel
) -> float:
    """Total squared error of ``model`` over ``pairs``."""
    total = 0.0
    for x, y in pairs:
        residual = y - model.predict(x)
        total += residual * residual
    return total


def mean_sse_of_model(
    pairs: Sequence[tuple[float, float]], model: LinearModel
) -> float:
    """Average squared error of ``model`` over ``pairs`` (§4's ``sse(c,a,b)``).

    Raises
    ------
    ValueError
        If ``pairs`` is empty.
    """
    n = len(pairs)
    if n == 0:
        raise ValueError("average sse over an empty cache line is undefined")
    return sse_of_model(pairs, model) / n


def no_answer_sse(pairs: Sequence[tuple[float, float]]) -> float:
    """Average squared error of refusing to answer (§4's ``no_answer_sse``).

    If no model were available the node could not estimate ``x_j`` at
    all; the paper charges ``x_j²`` per observation for that — i.e. the
    implicit estimate is zero.
    """
    n = len(pairs)
    if n == 0:
        raise ValueError("no-answer sse over an empty cache line is undefined")
    return sum(y * y for _, y in pairs) / n
