"""Exact rational plane geometry.

Points carry `fractions.Fraction` coordinates, so stored and serialized
coordinates are exact.  `proper_intersection`, the one predicate here,
is exact too, with no epsilons anywhere; the SVG writer places crossing
dots with it.  Planarization does not use it: it scales each point set
to integers and decides every predicate from one integer signed area
per point triple (see `planarize`).  Degenerate inputs (collinear
triples, tangencies, overlaps) are never "resolved"; they fall on the
zero branch of a predicate and it is up to the caller to reject them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

RationalLike = Union[int, str, Fraction]


@dataclass(frozen=True)
class Point:
    """A point of the plane with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def cross(self, other: "Point") -> Fraction:
        return self.x * other.y - self.y * other.x


def point(x: RationalLike, y: RationalLike) -> Point:
    """Convenience constructor coercing ints/strings to Fractions."""
    return Point(Fraction(x), Fraction(y))


def proper_intersection(a1: Point, a2: Point, b1: Point, b2: Point) -> Optional[Point]:
    """Interior crossing point of two open segments, or None.

    Shared endpoints, touchings and collinear overlaps all return None;
    only a transversal crossing of both open segments counts.
    """
    d1 = a2 - a1
    d2 = b2 - b1
    denom = d1.cross(d2)
    if denom == 0:
        return None  # parallel or collinear: never a proper crossing
    w = b1 - a1
    t = w.cross(d2) / denom
    s = w.cross(d1) / denom
    if 0 < t < 1 and 0 < s < 1:
        return Point(a1.x + t * d1.x, a1.y + t * d1.y)
    return None


def circle_point(u: RationalLike) -> Point:
    """Exact rational point on the unit circle via the tangent half-angle map.

    ((1-u^2)/(1+u^2), 2u/(1+u^2)); strictly monotone in angle over all
    rational u, covering the whole circle except (-1, 0).
    """
    u = Fraction(u)
    den = 1 + u * u
    return Point((1 - u * u) / den, 2 * u / den)
