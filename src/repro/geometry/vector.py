"""Minimal 2-D vector/point utilities used by the floorplan and ray tracer.

The whole localization problem in the paper lives in the horizontal plane
(Appendix A treats the AP/client height difference separately), so the
geometry substrate works with plain 2-D points.  A light-weight immutable
``Point2D`` keeps the ray tracer readable; bulk math uses numpy directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import GeometryError

__all__ = [
    "Point2D",
    "distance",
    "bearing_deg",
    "bearings_deg",
    "normalize_angle_deg",
    "angle_difference_deg",
]


@dataclass(frozen=True)
class Point2D:
    """An immutable point (or free vector) in the plane, in metres."""

    x: float
    y: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __add__(self, other: "Point2D") -> "Point2D":
        return Point2D(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2D") -> "Point2D":
        return Point2D(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point2D":
        return Point2D(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Point2D":
        if scalar == 0:
            raise GeometryError("cannot divide a Point2D by zero")
        return Point2D(self.x / scalar, self.y / scalar)

    def dot(self, other: "Point2D") -> float:
        """Return the dot product with ``other``."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point2D") -> float:
        """Return the scalar (z-component) cross product with ``other``."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Return the Euclidean length of the vector."""
        return math.hypot(self.x, self.y)

    def normalized(self) -> "Point2D":
        """Return a unit vector pointing in the same direction."""
        length = self.norm()
        if length == 0:
            raise GeometryError("cannot normalize a zero-length vector")
        return Point2D(self.x / length, self.y / length)

    def perpendicular(self) -> "Point2D":
        """Return the vector rotated by +90 degrees (counter-clockwise)."""
        return Point2D(-self.y, self.x)

    def rotated(self, angle_deg: float) -> "Point2D":
        """Return the vector rotated counter-clockwise by ``angle_deg``."""
        angle = math.radians(angle_deg)
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        return Point2D(self.x * cos_a - self.y * sin_a,
                       self.x * sin_a + self.y * cos_a)

    def distance_to(self, other: "Point2D") -> float:
        """Return the Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def bearing_to(self, other: "Point2D") -> float:
        """Return the bearing from this point to ``other`` in degrees.

        The bearing is measured counter-clockwise from the +x axis and
        normalized to ``[0, 360)``.
        """
        return bearing_deg(self, other)

    def as_tuple(self) -> tuple[float, float]:
        """Return the point as a plain ``(x, y)`` tuple."""
        return (self.x, self.y)

    @staticmethod
    def from_iterable(values: Iterable[float]) -> "Point2D":
        """Build a point from any two-element iterable."""
        items = list(values)
        if len(items) != 2:
            raise GeometryError(
                f"expected exactly two coordinates, got {len(items)}")
        return Point2D(float(items[0]), float(items[1]))


def distance(a: Point2D, b: Point2D) -> float:
    """Return the Euclidean distance between points ``a`` and ``b``."""
    return a.distance_to(b)


def bearing_deg(origin: Point2D, target: Point2D) -> float:
    """Return the bearing from ``origin`` to ``target`` in degrees.

    Measured counter-clockwise from the +x axis, normalized to ``[0, 360)``.
    Raises :class:`GeometryError` if the two points coincide, because the
    bearing is then undefined.
    """
    dx = target.x - origin.x
    dy = target.y - origin.y
    if dx == 0 and dy == 0:
        raise GeometryError("bearing is undefined for coincident points")
    return float(bearings_deg(np.float64(dx), np.float64(dy)))


def bearings_deg(dx: ArrayLike, dy: ArrayLike) -> np.ndarray:
    """Return the bearings of displacements ``(dx, dy)`` in ``[0, 360)`` degrees.

    The single bearing kernel of the repository: the scalar
    :func:`bearing_deg`, the Equation 8 bearing grid and the stacked
    refinement objective all call it, so a grid cell and the same point
    scored by the hill climb see the same bits.  NumPy's ``arctan2`` gives
    identical results for scalars and arrays of any length, whereas libm's
    ``math.atan2`` differs from it in the last ulp for a few percent of
    inputs.  ``(0, 0)`` maps to 0.0, as ``arctan2`` defines it.
    """
    bearings = np.degrees(np.arctan2(dy, dx)) % 360.0
    # A tiny negative angle wraps to exactly 360.0 in floating point; fold
    # it back so every bearing is strictly below 360.
    return np.where(bearings >= 360.0, 0.0, bearings)


def normalize_angle_deg(angle_deg: float) -> float:
    """Normalize an angle in degrees to the interval ``[0, 360)``."""
    normalized = angle_deg % 360.0
    # A tiny negative angle wraps to exactly 360.0 in floating point; fold it
    # back so the result is always strictly below 360.
    return 0.0 if normalized >= 360.0 else normalized


def angle_difference_deg(a_deg: float, b_deg: float) -> float:
    """Return the magnitude of the smallest rotation between two angles.

    The result is in ``[0, 180]`` degrees, which is the natural metric for
    comparing AoA peaks (Section 2.4's five-degree matching tolerance).
    """
    diff = abs(normalize_angle_deg(a_deg) - normalize_angle_deg(b_deg)) % 360.0
    return min(diff, 360.0 - diff)
