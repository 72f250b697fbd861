"""Planarization of straight-line drawings of complete graphs.

Given n points in general position, all C(n,2) segments are drawn and
every proper pairwise crossing becomes a crossing node.  Degenerate
configurations (coincident points, collinear triples, three segments
through one point) are rejected, never perturbed silently.  Every
drawing family orders the crossings along an edge through
`crossing_path`, which refuses two at one position as `concurrent`.

Every predicate is exact integer arithmetic.  `segment_arrangement`
multiplies the point set, once, by the least common multiple of all
coordinate denominators; a positive scaling changes no orientation, no
crossing and no order along a segment.  `integer_arrangement`, which it
calls and which random draws call directly, computes the signed area
det(i, j, k) = (p_j - p_i) x (p_k - p_i) of each triple i < j < k once,
in the loop that refuses collinear triples, and keeps it in a table of
n * C(n,2) values: row (a, b), a < b, holds det(a, b, k) for every k,
filled from det(i,j,k) = det(j,k,i) = -det(i,k,j).  Every crossing
predicate reads that table.  For vertex-disjoint edges ab and cd:

- they cross exactly when det(a,b,c) and det(a,b,d) differ in sign and
  det(c,d,a) and det(c,d,b) differ in sign;
- a + t*(b - a) = c + s*(d - c) at t = tn/den and s = sn/den with
  den = det(a,b,d) - det(a,b,c) = (b - a) x (d - c),
  tn = det(a,c,d) and sn = -det(a,b,c);
- the sign of den, the turn from ab to cd, is the crossing's bit.

A crossing's position along an edge is kept as a parameter
t = num/den with 0 < num < den.  Let D bound every such den;
2 * width * height of the scaled point set does, since den is the
cross product of two segment directions.  Two distinct
parameters with denominators at most D differ by at least 1/D^2, so
the floor of t*D^2, `num * D*D // den`, is strictly monotone on
distinct parameters and equal on equal ones.  An edge's crossings sort
by that integer key, and two crossings at one parameter are two
adjacent equal keys.  The directions around a vertex sort the same
way: by the ray or open half-plane they lie in, then by the floor of
-cot(angle) * D^2, with D = height bounding every |dy|; the cotangent
falls as the angle grows within each open half-plane.  The `Fraction`
points themselves are only stored, as the drawing's geometry; no `geom`
predicate runs here.

The reference face of a planarized drawing is the unbounded face, named
by a dart read off the arrangement.  Seen from the lexicographically
largest point `top`, every other point lies at an angle in (90, 270]
degrees, so the last neighbor w in the counterclockwise order at `top`
has every other point strictly to the right of top->w.  That hull edge
is never crossed, and the face to the left of top->w is unbounded.

`planarize_points` is `segment_arrangement` followed by
`planarize_arrangement`, which builds the map.  A caller that already
holds a point set's arrangement (the random generator) passes it
to `planarize_arrangement` with the `Fraction` points, and the segments
are not intersected again.
"""

from __future__ import annotations

import itertools
from math import lcm
from typing import Any, List, NamedTuple, Sequence, Tuple

from .drawing import Drawing, PointsGeometry, build_drawing, edge_ids, edge_list
from .geom import Point

IntPoint = Tuple[int, int]


class DegenerateInput(ValueError):
    """Input violates general position; `kind` names the failure."""

    def __init__(self, kind: str, witness: tuple):
        self.kind = kind  # "coincident" | "collinear" | "concurrent" | "half-turn"
        self.witness = witness
        super().__init__(f"{kind}: {witness}")


class Arrangement(NamedTuple):
    """Raw intersection structure of all segments among a point set."""

    crossings: Tuple[Tuple[int, int], ...]          # (edge a, edge b), a<b
    edge_paths: Tuple[Tuple[int, ...], ...]         # ordered crossing ids per edge
    bits: Tuple[str, ...]                           # rotation orientation per crossing
    vertex_orders: Tuple[Tuple[int, ...], ...]      # ccw neighbor order per vertex


def crossing_path(hits: List[Tuple[Any, int]], edge: Tuple[int, int]) -> Tuple[int, ...]:
    """The crossing ids of `edge` by their (position, id) `hits`, sorted in
    place, position ascending; two crossings at one position are three
    curves through one point, refused with the witness (edge, k1, k2)."""
    if len(hits) < 2:
        return tuple([k for _, k in hits])
    hits.sort()
    for (t1, k1), (t2, k2) in zip(hits, hits[1:]):
        if t1 == t2:
            raise DegenerateInput("concurrent", (edge, k1, k2))
    return tuple([k for _, k in hits])


def _integer_points(points: Sequence[Point]) -> List[IntPoint]:
    """The points scaled by the LCM of all coordinate denominators."""
    pts = list(points)
    scale = lcm(*(c.denominator for p in pts for c in (p.x, p.y)))
    return [(p.x.numerator * (scale // p.x.denominator),
             p.y.numerator * (scale // p.y.denominator)) for p in pts]


def segment_arrangement(points: Sequence[Point]) -> Arrangement:
    """Intersect all segments of the complete graph on the given points.

    Raises DegenerateInput on two coincident points, on three collinear
    points, and when three segments meet in a common interior point
    (detected as two crossings at the same parameter along one segment).
    """
    return integer_arrangement(_integer_points(points))


def integer_arrangement(pts: Sequence[IntPoint]) -> Arrangement:
    """`segment_arrangement` of integer points, decided by one signed area
    per point triple (see the module docstring)."""
    n = len(pts)
    if len(set(pts)) < n:
        for i, j in itertools.combinations(range(n), 2):
            if pts[i] == pts[j]:
                raise DegenerateInput("coincident", (i, j))
    edges = edge_list(n)
    eid = edge_ids(n)
    # area[e][k] = det(a, b, k) for edge e = (a, b): twice the signed area
    # of the triangle a, b, k, positive when k lies left of a->b
    area = [[0] * n for _ in edges]
    for i, (xi, yi) in enumerate(pts):
        row_i = eid[i]
        for j in range(i + 1, n):
            xj, yj = pts[j]
            dx, dy = xj - xi, yj - yi
            ij = area[row_i[j]]
            row_j = eid[j]
            for k in range(j + 1, n):
                xk, yk = pts[k]
                det = dx * (yk - yi) - dy * (xk - xi)
                if det == 0:
                    raise DegenerateInput("collinear", (i, j, k))
                ij[k] = det
                area[row_i[k]][j] = -det
                area[row_j[k]][i] = det

    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    width = max(xs, default=0) - min(xs, default=0)
    height = max(ys, default=0) - min(ys, default=0)
    # D*D for the floor keys (module docstring): |d1 x d2| <= 2*width*height
    t_scale = (2 * width * height) ** 2

    crossings: List[Tuple[int, int]] = []
    bits: List[str] = []
    per_edge: List[List[Tuple[int, int]]] = [[] for _ in edges]
    # the vertex-disjoint pairs ea < eb, in that order: the edges after
    # ab = edges[ea] with first endpoint above a start at ea + n - b
    indexed = list(enumerate(edges))
    for ea, (a, b) in indexed:
        ab = area[ea]
        hits_a = per_edge[ea]
        for eb, (c, d) in indexed[ea + n - b:]:
            if c == b or d == b:
                continue
            abc = ab[c]
            abd = ab[d]
            if (abc > 0) == (abd > 0):
                continue  # c and d on one side of ab
            cd = area[eb]
            cda = cd[a]
            if (cda > 0) == (cd[b] > 0):
                continue  # a and b on one side of cd
            # a + t*(b-a) = c + s*(d-c), t = tn/den and s = sn/den; the
            # sign of den, the turn from ab to cd, is the crossing's bit
            den = abd - abc
            if den > 0:
                tn, sn = cda, -abc
                bits.append("+")
            else:
                den, tn, sn = -den, -cda, abc
                bits.append("-")
            k = len(crossings)
            crossings.append((ea, eb))
            hits_a.append((tn * t_scale // den, k))
            per_edge[eb].append((sn * t_scale // den, k))

    edge_paths = [crossing_path(hits, edge) for edge, hits in zip(edges, per_edge)]

    # counterclockwise from the +x axis: the ray at angle 0, the upper
    # half-plane by floor(-cot * D^2) with D = height, the ray at 180
    # degrees, the lower half-plane
    cot_scale = height * height
    vertex_orders = []
    for u, (ux, uy) in enumerate(pts):
        dirs = []
        for w, (x, y) in enumerate(pts):
            dy = y - uy
            if dy > 0:
                dirs.append((1, (ux - x) * cot_scale // dy, w))
            elif dy < 0:
                dirs.append((3, (ux - x) * cot_scale // dy, w))
            elif w != u:
                dirs.append((0 if x > ux else 2, 0, w))
        dirs.sort()
        vertex_orders.append(tuple([w for _, _, w in dirs]))

    return Arrangement(
        crossings=tuple(crossings),
        edge_paths=tuple(edge_paths),
        bits=tuple(bits),
        vertex_orders=tuple(vertex_orders),
    )


def planarize_points(points: Sequence[Point]) -> Drawing:
    """Validated Drawing of the straight-line complete graph on `points`."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    return planarize_arrangement(pts, segment_arrangement(pts))


def planarize_arrangement(points: Sequence[Point], arr: Arrangement) -> Drawing:
    """The map of `points` from their already computed `segment_arrangement`.

    The reference face is the unbounded one, read off the arrangement
    (see the module docstring).
    """
    pts = tuple(points)
    n = len(pts)
    paths = dict(zip(edge_list(n), arr.edge_paths))
    top = max(range(n), key=lambda i: (pts[i].x, pts[i].y))
    return build_drawing(
        n=n,
        edge_paths=paths,
        crossing_orientations=arr.bits,
        vertex_rotations=arr.vertex_orders,
        reference=(top, arr.vertex_orders[top][-1]),
        geometry=PointsGeometry(points=pts),
    )

