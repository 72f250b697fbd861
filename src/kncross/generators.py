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

Every family hands `build_drawing` one crossing path per edge in
`edge_list(n)` order: point sets through their arrangement, the two-page
book from its loop over the edges, and the tin can, which writes each
region's paths, lid chords and side edges, at their edge ids.  No
family keys a table by vertex pair.  A `TwoPageSpec` holds its spine
order and the page of each edge in edge order, and a two-page drawing
keeps those two and its spine positions as its geometry, so
`gen_twopage(TwoPageSpec(g.order, g.pages))` rebuilds a book from its
geometry g.  Its reference face, the unbounded one, is
named by one rule, `_book_reference`, which `io.serialize` reads too.

Every family is built by one retry loop, `_first_nondegenerate`: it
hands attempt 0, 1, 2, ... to a function of the attempt and returns the
first drawing that raises no DegenerateInput (two coincident angles, a
half-turn side edge, two crossings at one parameter as
`planarize.crossing_path` refuses them, three concurrent chords); any
other refusal reaches the caller at once.  Circle parameters and spine
positions are the integers nudged by `_nudged`, i + (i+1)^2/base, with a
base that grows with the attempt: 10^4 * 3^a on the convex circle (plain
integers at attempt 0) and the tin can's lids, 10^5 * 7^a on the spine.
Convex drawings and two-page books get 40 attempts, the tin can 30.
The tin can's angles and lid parameters are a function of
(n, attempt), `_cylindrical_parameters`, written nowhere else; the
drawing keeps none of them, so its geometry is None, as a parsed map's
is.

Random point sets go through the same loop, `_random_arrangement`, with
no bound on the attempts: each attempt draws the next n points of one
seeded stream, so a degenerate draw is skipped and the stream continues.
It returns the integer points with their segment arrangement.  The
arrangement already holds the crossing count and the rotation system, so
`hunt` classifies a draw before any map is built.

A subdrawing of any family comes from its map, by `drawing.subdrawing`;
no construction is re-run on a subset of its coordinates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import floor
from typing import (Callable, Iterable, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, TypeVar)

from .drawing import (
    Drawing,
    TwoPageGeometry,
    _check_n,
    build_drawing,
    edge_ids,
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


_T = TypeVar("_T")


def _first_nondegenerate(attempts: Iterable[int], assemble: Callable[[int], _T]) -> _T:
    """`assemble(attempt)` for the first attempt that raises no
    `DegenerateInput`; every other refusal reaches the caller at once."""
    for attempt in attempts:
        try:
            return assemble(attempt)
        except DegenerateInput:
            continue
    raise RuntimeError("every attempt met a degenerate configuration")


def _nudged(count: int, base: int) -> List[Fraction]:
    """i + (i+1)^2/base for i < count: each integer moved up by a small
    rational of its own, so that no two gaps between them are equal."""
    return [Fraction(i) + Fraction((i + 1) ** 2, base) for i in range(count)]


# ---------------------------------------------------------------------------
# convex and random rectilinear drawings
# ---------------------------------------------------------------------------


def gen_convex(n: int) -> Drawing:
    """Rectilinear drawing of K_n on n rational points in convex position."""
    _check_n(n)

    def assemble(attempt: int) -> Drawing:
        params = _nudged(n, 10_000 * 3 ** attempt) if attempt else range(n)
        return planarize_points([circle_point(u) for u in params])

    return _first_nondegenerate(range(40), assemble)


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

    def draw(attempt: int) -> Tuple[List[IntPoint], Arrangement]:
        points = [(rng.below(_GRID), rng.below(_GRID)) for _ in range(n)]
        return points, integer_arrangement(points)

    return _first_nondegenerate(itertools.count(), draw)


def gen_random_points(n: int, seed: int) -> Drawing:
    """Seeded random rectilinear drawing on a 10^6 grid.

    The points are those of `_random_arrangement`, so the result is a
    pure function of (n, seed).
    """
    _check_n(n)
    if not isinstance(seed, int):
        raise ValueError(f"seed {seed!r} is not an int")
    points, arr = _random_arrangement(n, seed)
    return planarize_arrangement([point(x, y) for x, y in points], arr)


# ---------------------------------------------------------------------------
# 2-page book drawings
# ---------------------------------------------------------------------------


class TwoPageSpec(NamedTuple):
    order: Tuple[int, ...]      # spine order, left to right
    pages: Tuple[str, ...]      # "T" | "B" per edge, in edge order


def gen_twopage(spec: TwoPageSpec) -> Drawing:
    """Semicircle drawing of a 2-page book embedding.

    Vertices sit on the x axis in spine order; an edge is the half
    circle over its endpoints on its page.  Same-page edges cross
    exactly when their spine intervals interleave, at abscissa
    (ab - cd) / ((a+b) - (c+d)).  Spine positions receive tiny distinct
    rational offsets so that no three semicircles are concurrent; the
    offsets never change the spine order, hence never the crossing set.
    """
    n = len(spec.order)
    if not all(isinstance(v, int) for v in spec.order) or sorted(spec.order) != list(range(n)):
        raise ValueError("spine order must be a permutation of 0..n-1")
    if isinstance(spec.pages, Mapping):
        raise ValueError("pages is a mapping; need one page per edge in edge_list(n) order")
    if len(spec.pages) != n * (n - 1) // 2:
        raise ValueError(f"need {n * (n - 1) // 2} pages, got {len(spec.pages)}")
    for page in spec.pages:
        if page not in ("T", "B"):
            raise ValueError(f"bad page {page!r}")
    _check_n(n)

    def assemble(attempt: int) -> Drawing:
        # the position of slot s is vertex spec.order[s]'s
        by_vertex = sorted(zip(spec.order, _nudged(n, 100_000 * 7 ** attempt)))
        return _assemble_twopage(spec, [x for _, x in by_vertex])

    return _first_nondegenerate(range(40), assemble)


def _book_reference(order: Sequence[int], pages: Sequence[str]) -> Tuple[int, int]:
    """The dart of a book's reference face, the unbounded one: from the
    leftmost vertex to its rightmost top-page neighbour or, when it has
    none, to its leftmost bottom-page neighbour.  `_assemble_twopage`
    builds with it and `io.serialize` writes a twopage file only of a
    drawing referenced by it."""
    ids = edge_ids(len(order))[order[0]]
    return order[0], next((w for w in order[:0:-1] if pages[ids[w]] == "T"), order[1])


def _assemble_twopage(spec: TwoPageSpec, positions: Sequence[Fraction]) -> Drawing:
    """The semicircle map of `spec` with vertex v at spine abscissa positions[v].

    The positions must be distinct and increase along `spec.order`.  Two
    edges that share an endpoint then share an end of their spine
    intervals, so they never interleave strictly and never cross.
    """
    n = len(spec.order)
    edges = edge_list(n)
    # an edge runs from u to v, right to left when u lies to the right
    backward = [positions[u] > positions[v] for u, v in edges]
    spans = [(positions[v], positions[u]) if back else (positions[u], positions[v])
             for (u, v), back in zip(edges, backward)]

    k = 0
    per_edge: List[List[Tuple[Fraction, int]]] = [[] for _ in edges]
    for ea, eb in itertools.combinations(range(len(edges)), 2):
        if spec.pages[ea] != spec.pages[eb]:
            continue
        (l1, r1), (l2, r2) = spans[ea], spans[eb]
        if not (l1 < l2 < r1 < r2 or l2 < l1 < r2 < r1):
            continue
        x = (l1 * r1 - l2 * r2) / ((l1 + r1) - (l2 + r2))
        per_edge[ea].append((x, k))
        per_edge[eb].append((x, k))
        k += 1

    paths = [crossing_path(hits, edge)[::-1 if back else 1]
             for edge, hits, back in zip(edges, per_edge, backward)]

    # counterclockwise from the +x axis: top page to the right, then to
    # the left, each left to right; bottom page to the left, then to the
    # right, each right to left
    rotations: List[Tuple[int, ...]] = []
    for v, (x_v, ids) in enumerate(zip(positions, edge_ids(n))):
        keyed = []
        for w, x in enumerate(positions):
            if w == v:
                continue
            if spec.pages[ids[w]] == "T":
                keyed.append((0 if x > x_v else 1, x, w))
            else:
                keyed.append((2 if x < x_v else 3, -x, w))
        keyed.sort()
        rotations.append(tuple([w for _, _, w in keyed]))

    geometry = TwoPageGeometry(
        order=tuple(spec.order),
        pages=tuple(spec.pages),
        positions=tuple(positions),
    )
    return build_drawing(n, paths, k, rotations, _book_reference(spec.order, spec.pages),
                         geometry=geometry)


def twopage_all_top(n: int) -> TwoPageSpec:
    """Every edge on the top page with the identity spine order."""
    _check_n(n)
    return TwoPageSpec(order=tuple(range(n)), pages=("T",) * (n * (n - 1) // 2))


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
    at most once since |slope| < 1.  A slope of 0 gives lo == hi >=
    floor(hi), so it returns None before dividing.
    """
    d1 = d0 + slope
    lo, hi = (d0, d1) if d0 < d1 else (d1, d0)
    level = floor(hi)
    if not lo < level:
        return None
    return (level - d0) / slope


def _cylindrical_parameters(n: int, attempt: int) -> Tuple[List[Fraction], ...]:
    """The four lists `_assemble_cylindrical` takes for the tin can K_n at
    retry `attempt`: outer and inner vertex angles, in turns, then outer
    and inner lid parameters, for `circle_point`.

    Perturbation multipliers are powers of 3: linear-in-index offsets
    would keep angle differences translation invariant and preserve the
    symmetric coincidences of the regular construction.
    """
    m_outer, m_inner = (n + 1) // 2, n // 2
    eps = Fraction(1, 1000 * n ** 3 * 3 ** (n + 2) * 5 ** attempt)
    lids = _nudged(m_outer, 10_000 * 3 ** attempt)
    return ([Fraction(i, m_outer) + 3 ** (i + 1) * eps for i in range(m_outer)],
            [Fraction(2 * j + 1, 2 * m_inner) + 3 ** (m_outer + j + 1) * eps
             for j in range(m_inner)],
            lids, lids[:m_inner])


def gen_cylindrical(n: int) -> Drawing:
    """Tin can drawing: ceil(n/2) outer and floor(n/2) inner vertices.

    Outer vertices are 0..ceil(n/2)-1 counterclockwise, inner vertices
    follow, also counterclockwise.  The reference face is the outer rim
    face between outer vertices 0 and 1.
    """
    _check_n(n)
    return _first_nondegenerate(
        range(30), lambda attempt: _assemble_cylindrical(*_cylindrical_parameters(n, attempt)))


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
    delta = [[_wrap_half(b - a) for b in inner_angles] for a in outer_angles]

    eids = edge_ids(n)
    crossings = 0
    paths: List[Sequence[int]] = [()] * (n * (n - 1) // 2)  # each written once below

    # lid arrangements (exact coordinates on the circles).  Inner lid:
    # local vertex j is global M + j, orientation kept.  Outer lid:
    # mirrored into the region outside the circle, so every rotation there
    # is reversed.
    for first, params in ((M, inner_params), (0, outer_params)):
        arr = segment_arrangement([circle_point(u) for u in params])
        local_edges = itertools.combinations(range(first, first + len(params)), 2)
        ids = list(range(crossings, crossings + arr.crossings))  # shared by both passes
        for (u, v), path in zip(local_edges, arr.edge_paths):
            paths[eids[u][v]] = list(map(ids.__getitem__, path))
        crossings += arr.crossings

    # annulus: side edge pairs crossing where the angular difference
    # passes through an integer
    side_edges = [(i, j) for i in range(M) for j in range(m)]
    per_side: List[List[Tuple[Fraction, int]]] = [[] for _ in side_edges]
    for (a, (i1, j1)), (b, (i2, j2)) in itertools.combinations(enumerate(side_edges), 2):
        if i1 == i2 or j1 == j2:
            continue
        t = _side_crossing(outer_angles[i1] - outer_angles[i2], delta[i1][j1] - delta[i2][j2])
        if t is None:
            continue
        per_side[a].append((t, crossings))
        per_side[b].append((t, crossings))
        crossings += 1
    for (i, j), hits in zip(side_edges, per_side):
        paths[eids[i][M + j]] = crossing_path(hits, (i, M + j))

    # rotations: the chords at a vertex follow the circle, clockwise from
    # an outer vertex (its lid is mirrored), counterclockwise from an inner one
    rotations: List[Tuple[int, ...]] = []
    for i in range(M):
        chords = [(i - d) % M for d in range(1, M)]
        sides = sorted(range(m), key=delta[i].__getitem__, reverse=True)
        rotations.append(tuple(chords + [M + j for j in sides]))
    for j in range(m):
        sides = sorted(range(M), key=lambda i: delta[i][j], reverse=True)
        chords = [M + (j + d) % m for d in range(1, m)]
        rotations.append(tuple(sides + chords))

    return build_drawing(n, paths, crossings, rotations, (0, 1))

