"""Canonical drawing families: convex, cylindrical, 2-page, random.

All constructions are exact and deterministic.  The cylindrical (tin
can) drawing is assembled from three regions: straight chords among the
inner-circle vertices, chords among the outer-circle vertices drawn in
the region outside their circle (a mirrored disk, so all its rotations
are reversed), and side edges running through the annulus as curves
linear in (radius, angle).  Two side edges cross exactly when their
angular difference passes through an integer number of turns, which
happens at a rational parameter; each side edge takes the strictly
shorter angular direction, so any pair crosses at most once.

Vertex angles, spine positions and disk coordinates carry small
distinct rational perturbations; whenever a DegenerateInput survives (two
coincident angles, a half-turn side edge, two crossings at one parameter
as `planarize.crossing_path` refuses them, three concurrent chords) the
whole construction retries with smaller perturbations.

Random point sets are drawn in one seeded retry loop,
`_random_arrangement`, which returns the integer points with their
segment arrangement.  The arrangement already holds the crossing count
and the rotation system, so `hunt` classifies a draw before any map is
built.

A subdrawing of any family comes from its map, by `drawing.subdrawing`;
no construction is re-run on a subset of its coordinates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import floor
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .drawing import (
    CylindricalGeometry,
    Drawing,
    TwoPageGeometry,
    build_drawing,
    edge_list,
)
from .geom import circle_point, point
from .planarize import (
    Arrangement,
    DegenerateInput,
    IntPoint,
    crossing_path,
    integer_arrangement,
    planarize_arrangement,
    planarize_points,
    segment_arrangement,
)

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator (SplitMix64), stable across platforms.

    state += 0x9E3779B97F4A7C15; z = state; z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9; z ^= z >> 27; z *= 0x94D049BB133111EB;
    z ^= z >> 31; yield z.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def below(self, bound: int) -> int:
        return self.next() % bound


# ---------------------------------------------------------------------------
# convex and random rectilinear drawings
# ---------------------------------------------------------------------------


def gen_convex(n: int) -> Drawing:
    """Rectilinear drawing of K_n on n rational points in convex position."""
    if n < 3:
        raise ValueError("need n >= 3")
    for attempt in range(40):
        if attempt == 0:
            params = [Fraction(i) for i in range(n)]
        else:
            base = 10_000 * 3 ** attempt
            params = [Fraction(i) + Fraction((i + 1) ** 2, base) for i in range(n)]
        points = [circle_point(u) for u in params]
        try:
            return planarize_points(points)
        except DegenerateInput:
            continue
    raise RuntimeError("could not find a nondegenerate convex configuration")


_GRID = 1_000_000


def _random_arrangement(n: int, seed: int) -> Tuple[List[IntPoint], Arrangement]:
    """The random integer point set of (n, seed) and its segment arrangement.

    Coordinates are consecutive SplitMix64 outputs reduced mod 10^6
    (x then y per point); a degenerate draw is rejected and the stream
    continues.  The draws stay integers and go straight to
    `integer_arrangement`.  This is the one place random points are
    drawn: `gen_random_points` planarizes the result with the `Fraction`
    points a drawing stores, and `hunt` reads each trial's class off the
    arrangement and builds a map only for the match it writes.
    """
    rng = SplitMix64(seed)
    while True:
        points = [(rng.below(_GRID), rng.below(_GRID)) for _ in range(n)]
        try:
            return points, integer_arrangement(points)
        except DegenerateInput:
            continue


def gen_random_points(n: int, seed: int) -> Drawing:
    """Seeded random rectilinear drawing on a 10^6 grid.

    The points are those of `_random_arrangement`, so the result is a
    pure function of (n, seed).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    points, arr = _random_arrangement(n, seed)
    return planarize_arrangement([point(x, y) for x, y in points], arr)


# ---------------------------------------------------------------------------
# 2-page book drawings
# ---------------------------------------------------------------------------


class TwoPageSpec(NamedTuple):
    order: Tuple[int, ...]                      # spine order, left to right
    pages: Mapping[Tuple[int, int], str]        # (u,v) u<v -> "T" | "B"

    def page(self, u: int, v: int) -> str:
        return self.pages[(u, v) if u < v else (v, u)]


def _validate_twopage(spec: TwoPageSpec) -> int:
    n = len(spec.order)
    if sorted(spec.order) != list(range(n)):
        raise ValueError("spine order must be a permutation of 0..n-1")
    if spec.pages.keys() != set(itertools.combinations(range(n), 2)):
        raise ValueError("pages must assign every edge (u, v), u < v, exactly once")
    for v in spec.pages.values():
        if v not in ("T", "B"):
            raise ValueError(f"bad page {v!r}")
    return n


def gen_twopage(spec: TwoPageSpec) -> Drawing:
    """Semicircle drawing of a 2-page book embedding.

    Vertices sit on the x axis in spine order; an edge is the half
    circle over its endpoints on its page.  Same-page edges cross
    exactly when their spine intervals interleave, at abscissa
    (ab - cd) / ((a+b) - (c+d)).  Spine positions receive tiny distinct
    rational offsets so that no three semicircles are concurrent; the
    offsets never change the spine order, hence never the crossing set.
    """
    n = _validate_twopage(spec)
    if n < 3:
        raise ValueError("need n >= 3")
    for attempt in range(40):
        base = 100_000 * 7 ** attempt
        positions = [Fraction(0)] * n
        for slot, v in enumerate(spec.order):
            positions[v] = Fraction(slot) + Fraction((slot + 1) ** 2, base)
        try:
            return _assemble_twopage(spec, positions)
        except DegenerateInput:
            continue
    raise RuntimeError("could not resolve semicircle concurrences")


def _assemble_twopage(spec: TwoPageSpec, positions: Sequence[Fraction]) -> Drawing:
    """The semicircle map of `spec` with vertex v at spine abscissa positions[v].

    The positions must be distinct and increase along `spec.order`.  Two
    edges that share an endpoint then share an end of their spine
    intervals, so they never interleave strictly and never cross.
    """
    n = len(spec.order)
    edges = edge_list(n)
    pages = [spec.pages[edge] for edge in edges]
    # an edge runs from u to v, right to left when u lies to the right
    backward = [positions[u] > positions[v] for u, v in edges]
    spans = [(positions[v], positions[u]) if back else (positions[u], positions[v])
             for (u, v), back in zip(edges, backward)]

    crossings: List[Tuple[int, int]] = []
    per_edge: List[List[Tuple[Fraction, int]]] = [[] for _ in edges]
    for ea, eb in itertools.combinations(range(len(edges)), 2):
        if pages[ea] != pages[eb]:
            continue
        (l1, r1), (l2, r2) = spans[ea], spans[eb]
        if not (l1 < l2 < r1 < r2 or l2 < l1 < r2 < r1):
            continue
        x = (l1 * r1 - l2 * r2) / ((l1 + r1) - (l2 + r2))
        k = len(crossings)
        crossings.append((ea, eb))
        per_edge[ea].append((x, k))
        per_edge[eb].append((x, k))

    paths: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for edge, hits, back in zip(edges, per_edge, backward):
        ordered = crossing_path(hits, edge)
        paths[edge] = ordered[::-1] if back else ordered

    # '+' when the first edge's midpoint lies left of the second's; an
    # edge running right to left and the bottom page each flip the bit
    bits: List[str] = []
    for ea, eb in crossings:
        (l1, r1), (l2, r2) = spans[ea], spans[eb]
        flips = backward[ea] + backward[eb] + (pages[ea] == "B")
        bits.append("+" if (l1 + r1 < l2 + r2) == (flips % 2 == 0) else "-")

    # counterclockwise from the +x axis: top page to the right, then to
    # the left, each left to right; bottom page to the left, then to the
    # right, each right to left
    rotations: List[Tuple[int, ...]] = []
    for v, x_v in enumerate(positions):
        keyed = []
        for w, x in enumerate(positions):
            if w == v:
                continue
            if spec.page(v, w) == "T":
                keyed.append((0 if x > x_v else 1, x, w))
            else:
                keyed.append((2 if x < x_v else 3, -x, w))
        keyed.sort()
        rotations.append(tuple([w for _, _, w in keyed]))

    # the leftmost vertex's last top-page neighbour (its last neighbour
    # when it has none) bounds the outer face
    v0 = spec.order[0]
    tops = sum(spec.page(v0, w) == "T" for w in rotations[v0])
    geometry = TwoPageGeometry(
        order=tuple(spec.order),
        pages=tuple(zip(edges, pages)),
        positions=tuple(positions),
    )
    return build_drawing(n, paths, bits, rotations, (v0, rotations[v0][tops - 1]),
                         geometry=geometry)


def twopage_all_top(n: int) -> TwoPageSpec:
    """Every edge on the top page with the identity spine order."""
    pages = {e: "T" for e in itertools.combinations(range(n), 2)}
    return TwoPageSpec(order=tuple(range(n)), pages=pages)


# ---------------------------------------------------------------------------
# cylindrical (tin can) drawings
# ---------------------------------------------------------------------------


def _wrap_half(x: Fraction) -> Fraction:
    """Representative of x mod 1 in (-1/2, 1/2); a half turn has none."""
    f = x % 1
    if f == Fraction(1, 2):
        raise DegenerateInput("half-turn", (x,))
    return f if f < Fraction(1, 2) else f - 1


def _side_crossing(d0: Fraction, slope: Fraction) -> Optional[Fraction]:
    """Parameter t in (0, 1) where two side edges cross, or None.

    Their angular difference runs from d0 at t=0 linearly to d0 + slope
    at t=1; they cross where it passes through an integer, which happens
    at most once since |slope| < 1.
    """
    if slope == 0:
        return None
    d1 = d0 + slope
    lo, hi = (d0, d1) if d0 < d1 else (d1, d0)
    level = floor(hi)
    if not lo < level:
        return None
    return (level - d0) / slope


def gen_cylindrical(n: int) -> Drawing:
    """Tin can drawing: ceil(n/2) outer and floor(n/2) inner vertices.

    Outer vertices are 0..ceil(n/2)-1 counterclockwise, inner vertices
    follow, also counterclockwise.  The reference face is the outer rim
    face between outer vertices 0 and 1.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    m_outer = (n + 1) // 2
    m_inner = n // 2
    for attempt in range(30):
        # Perturbation multipliers are powers of 3: linear-in-index offsets
        # would keep angle differences translation invariant and preserve
        # the symmetric coincidences of the regular construction.
        eps = Fraction(1, 1000 * n ** 3 * 3 ** (n + 2) * 5 ** attempt)
        lid_base = 10_000 * 3 ** attempt
        outer_angles = [Fraction(i, m_outer) + 3 ** (i + 1) * eps
                        for i in range(m_outer)]
        inner_angles = [Fraction(2 * j + 1, 2 * m_inner) + 3 ** (m_outer + j + 1) * eps
                        for j in range(m_inner)]
        outer_params = [Fraction(i) + Fraction((i + 1) ** 2, lid_base)
                        for i in range(m_outer)]
        inner_params = [Fraction(j) + Fraction((j + 1) ** 2, lid_base)
                        for j in range(m_inner)]
        try:
            return _assemble_cylindrical(
                outer_angles, inner_angles, outer_params, inner_params)
        except DegenerateInput:
            continue
    raise RuntimeError("could not resolve cylindrical degeneracies")


def _assemble_cylindrical(
    outer_angles: Sequence[Fraction],
    inner_angles: Sequence[Fraction],
    outer_params: Sequence[Fraction],
    inner_params: Sequence[Fraction],
) -> Drawing:
    """Stitch the two lids and the annulus into one combinatorial map.

    Vertices are numbered: outer 0..M-1 in the given order, inner
    M..M+m-1 likewise.  Each list of angles must run once around its
    circle counterclockwise, (a_i - a_0) mod 1 increasing with i, so the
    index order is the cyclic order.  The reference face is left of the
    dart 0->1.
    """
    M, m = len(outer_angles), len(inner_angles)
    n = M + m
    angles = list(outer_angles) + list(inner_angles)
    for u, v in itertools.combinations(range(n), 2):
        if (angles[u] - angles[v]) % 1 == 0:
            raise DegenerateInput("coincident", (u, v))

    # side edges: (outer i, inner j), parametrized from the outer circle
    # (t=0, r=2) to the inner circle (t=1, r=1); theta(t) = A_i + delta*t
    delta: Dict[Tuple[int, int], Fraction] = {}
    for i in range(M):
        for j in range(m):
            delta[(i, j)] = _wrap_half(inner_angles[j] - outer_angles[i])

    crossing_bits: List[str] = []
    paths: Dict[Tuple[int, int], Sequence[int]] = {}

    # lid arrangements (exact coordinates on the circles).  Inner lid:
    # local vertex j is global M + j, orientation kept.  Outer lid:
    # mirrored into the region outside the circle, so every rotation there
    # is reversed and each crossing bit flips.
    for first, params, bit_of in ((M, inner_params, {"+": "+", "-": "-"}),
                                  (0, outer_params, {"+": "-", "-": "+"})):
        arr = segment_arrangement([circle_point(u) for u in params])
        base = len(crossing_bits)
        crossing_bits.extend(bit_of[bit] for bit in arr.bits)
        local_edges = itertools.combinations(range(first, first + len(params)), 2)
        for edge, path in zip(local_edges, arr.edge_paths):
            paths[edge] = [base + local_k for local_k in path]

    # annulus: side edge pairs crossing where the angular difference
    # passes through an integer
    side_edges = [(i, j) for i in range(M) for j in range(m)]
    per_side: Dict[Tuple[int, int], List[Tuple[Fraction, int]]] = {
        se: [] for se in side_edges}
    for (i1, j1), (i2, j2) in itertools.combinations(side_edges, 2):
        if i1 == i2 or j1 == j2:
            continue
        t = _side_crossing(outer_angles[i1] - outer_angles[i2],
                           delta[(i1, j1)] - delta[(i2, j2)])
        if t is None:
            continue
        k = len(crossing_bits)
        crossing_bits.append("+" if delta[(i1, j1)] > delta[(i2, j2)] else "-")
        per_side[(i1, j1)].append((t, k))
        per_side[(i2, j2)].append((t, k))
    for (i, j), hits in per_side.items():
        paths[(i, M + j)] = crossing_path(hits, (i, M + j))

    # rotations: the chords at a vertex follow the circle, clockwise from
    # an outer vertex (its lid is mirrored), counterclockwise from an inner one
    rotations: List[Tuple[int, ...]] = []
    for i in range(M):
        chords = [(i - d) % M for d in range(1, M)]
        sides = sorted(range(m), key=lambda j: delta[(i, j)], reverse=True)
        rotations.append(tuple(chords + [M + j for j in sides]))
    for j in range(m):
        sides = sorted(range(M), key=lambda i: delta[(i, j)], reverse=True)
        chords = [M + (j + d) % m for d in range(1, m)]
        rotations.append(tuple(sides + chords))

    geometry = CylindricalGeometry(
        outer=tuple(range(M)),
        inner=tuple(range(M, n)),
        angles=tuple(angles),
        lid_params=tuple(outer_params) + tuple(inner_params),
    )
    return build_drawing(n, paths, crossing_bits, rotations, (0, 1),
                         geometry=geometry)

