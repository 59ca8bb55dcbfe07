"""Spatial predicates.

Location is a first-class attribute of an unattended sensor (§3.1):
nodes are location-aware, and "for many applications like habitat
monitoring, spatial filters may be the most common predicate".  The
evaluation's Table 3 uses square range predicates
``loc in [x - W/2, x + W/2] x [y - W/2, y + W/2]`` centered at a random
point; the example query of §3.1 uses a named quadrant.

Regions are immutable predicates over ``(x, y)`` points; the parser
maps region syntax onto them and the executor evaluates them against
node locations (a representative evaluates them against the locations
of the nodes it represents, learned from their Accept messages).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Region",
    "Rect",
    "Circle",
    "Everywhere",
    "named_region",
    "NAMED_REGIONS",
    "random_square",
]


class Region(abc.ABC):
    """An immutable spatial predicate over unit-square coordinates."""

    @abc.abstractmethod
    def contains(self, x: float, y: float) -> bool:
        """Whether the point ``(x, y)`` satisfies the predicate."""

    def contains_mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """:meth:`contains` of every point ``(xs[i], ys[i])``, as a mask.

        The default calls :meth:`contains` per point, so it is exact for
        any region; subclasses override it with a column form only where
        that makes the same comparisons.
        """
        contains = self.contains
        return np.fromiter(
            (contains(x, y) for x, y in zip(xs.tolist(), ys.tolist())),
            dtype=bool,
            count=len(xs),
        )


@dataclass(frozen=True)
class Rect(Region):
    """Axis-aligned rectangle ``[x_low, x_high] x [y_low, y_high]`` (inclusive)."""

    x_low: float
    y_low: float
    x_high: float
    y_high: float

    def __post_init__(self) -> None:
        if self.x_high < self.x_low or self.y_high < self.y_low:
            raise ValueError(
                f"degenerate rectangle: [{self.x_low}, {self.x_high}] x "
                f"[{self.y_low}, {self.y_high}]"
            )

    def contains(self, x: float, y: float) -> bool:
        return self.x_low <= x <= self.x_high and self.y_low <= y <= self.y_high

    def contains_mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return (
            (self.x_low <= xs) & (xs <= self.x_high)
            & (self.y_low <= ys) & (ys <= self.y_high)
        )

    @property
    def area(self) -> float:
        """The rectangle's area (Table 3's ``W^2`` for square queries)."""
        return (self.x_high - self.x_low) * (self.y_high - self.y_low)


@dataclass(frozen=True)
class Circle(Region):
    """Disk of ``radius`` centered at ``(cx, cy)``."""

    cx: float
    cy: float
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")

    def contains(self, x: float, y: float) -> bool:
        return math.hypot(x - self.cx, y - self.cy) <= self.radius


@dataclass(frozen=True)
class Everywhere(Region):
    """The trivial predicate matching every location."""

    def contains(self, x: float, y: float) -> bool:
        return True

    def contains_mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.ones(len(xs), dtype=bool)


#: The quadrant vocabulary of the §3.1 example query (the paper's
#: ``SHOUTH_EAST_QUANDRANT`` [sic] is accepted as an alias).
NAMED_REGIONS: dict[str, Rect] = {
    "NORTH_WEST_QUADRANT": Rect(0.0, 0.5, 0.5, 1.0),
    "NORTH_EAST_QUADRANT": Rect(0.5, 0.5, 1.0, 1.0),
    "SOUTH_WEST_QUADRANT": Rect(0.0, 0.0, 0.5, 0.5),
    "SOUTH_EAST_QUADRANT": Rect(0.5, 0.0, 1.0, 0.5),
    "SHOUTH_EAST_QUANDRANT": Rect(0.5, 0.0, 1.0, 0.5),
    "EVERYWHERE": Rect(0.0, 0.0, 1.0, 1.0),
}


def named_region(name: str) -> Rect:
    """Resolve a named region (case-insensitive).

    >>> named_region("south_east_quadrant").contains(0.9, 0.1)
    True
    """
    key = name.upper()
    try:
        return NAMED_REGIONS[key]
    except KeyError:
        raise ValueError(
            f"unknown region {name!r}; known: {sorted(NAMED_REGIONS)}"
        ) from None


def random_square(area: float, rng: np.random.Generator) -> Rect:
    """A Table 3 query region: a ``W x W`` square at a random center.

    ``area`` is ``W^2``; the center is uniform on the unit square and
    the square may extend past the unit square's edges, exactly as in
    the paper's setup.
    """
    if not 0 < area:
        raise ValueError(f"area must be positive, got {area}")
    half_side = math.sqrt(area) / 2.0
    cx, cy = rng.random(), rng.random()
    return Rect(cx - half_side, cy - half_side, cx + half_side, cy + half_side)
