"""k-edge statistics and the crossing number identities they satisfy.

For a drawing with a reference face F, every edge uv and every other
vertex w span a triangle; in a good drawing it is a simple closed curve
that separates the sphere into two regions.  w is labelled R when F
lies on the same side of it as the face left of the first dart u->v,
and L otherwise, and uv is a k-edge for k the smaller label count.

Labels come from the per-face parity masks of `Drawing.face_parity`:
the XOR of the masks of F and of the face left of u->v has bit e set
when a dual path between the two faces crosses edge e an odd number of
times.  By the Jordan curve theorem the two faces lie on the same side
of the triangle exactly when bits uv, vw and uw sum to an even number,
so each label is three bit tests and needs no coordinates.  Goodness,
which the argument assumes, is checked when the drawing is built.
Vectors are always taken relative to the drawing's stored reference
face; use Drawing.with_reference to re-reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, List, Tuple

from .drawing import Drawing

Side = str  # "L" or "R"


@dataclass(frozen=True)
class KEdgeVector:
    """Counts E_0 .. E_{floor(n/2)-1} relative to `reference_face`."""

    counts: Tuple[int, ...]
    reference_face: int


@dataclass(frozen=True)
class CumulativeSums:
    single: Tuple[int, ...]   # E_{<=k}
    double: Tuple[int, ...]   # E_{<=<=k}


def _left_mask(drawing: Drawing, u: int, v: int) -> int:
    """Edges crossed an odd number of times between the reference face
    and the face left of the first dart u->v."""
    parity = drawing.face_parity
    return parity[drawing.reference_face] ^ parity[drawing.out_left_face[u][v]]


def side_of(drawing: Drawing, u: int, v: int, w: int) -> Side:
    """Label of w relative to the directed edge u->v and the reference face.

    Returns "R" exactly when the reference face lies on the same side of
    the triangle uvw as the face left of the u->v dart.
    """
    if len({u, v, w}) != 3:
        raise ValueError("u, v, w must be distinct")
    mask = _left_mask(drawing, u, v)
    eid = drawing.edge_id
    odd = (mask >> eid(u, v) ^ mask >> eid(v, w) ^ mask >> eid(u, w)) & 1
    return "L" if odd else "R"


def k_value(drawing: Drawing, edge: Tuple[int, int]) -> int:
    """Smaller of the two side counts over all w outside the edge."""
    return k_value_within(drawing, edge, range(drawing.n))


def k_value_within(drawing: Drawing, edge: Tuple[int, int],
                   alive: Iterable[int]) -> int:
    """k-value of an edge inside the subdrawing on `alive` vertices.

    Side labels are triangle-local, hence identical in the subdrawing
    and the full drawing; only the range of w shrinks.  Each label is
    computed as in `side_of`.
    """
    u, v = edge
    mask = _left_mask(drawing, u, v)
    eid = drawing.edge_id
    mask_uv = mask >> eid(u, v)
    rights = 0
    total = 0
    for w in alive:
        if w == u or w == v:
            continue
        total += 1
        if not (mask_uv ^ mask >> eid(v, w) ^ mask >> eid(u, w)) & 1:
            rights += 1
    return min(rights, total - rights)


def k_edge_vector(drawing: Drawing) -> KEdgeVector:
    """Histogram of k-values over all edges, relative to the reference face.

    Each label is computed as in `side_of`, with edge ids from a local
    n x n table and the reference mask read once.
    """
    n = drawing.n
    edges = drawing.edges
    eid = [[-1] * n for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        eid[u][v] = eid[v][u] = e
    parity = drawing.face_parity
    ref = parity[drawing.reference_face]
    out_left = drawing.out_left_face
    counts = [0] * (n // 2)
    for e, (u, v) in enumerate(edges):
        mask = ref ^ parity[out_left[u][v]]
        mask_uv = mask >> e
        row_u, row_v = eid[u], eid[v]
        rights = 0
        for w in range(n):
            if (w != u and w != v
                    and not (mask_uv ^ mask >> row_v[w] ^ mask >> row_u[w]) & 1):
                rights += 1
        counts[min(rights, n - 2 - rights)] += 1
    return KEdgeVector(counts=tuple(counts), reference_face=drawing.reference_face)


def cumulative_sums(vector: KEdgeVector) -> CumulativeSums:
    single: List[int] = []
    double: List[int] = []
    run = 0
    run2 = 0
    for count in vector.counts:
        run += count
        single.append(run)
        run2 += run
        double.append(run2)
    return CumulativeSums(single=tuple(single), double=tuple(double))


def hill_number(n: int) -> int:
    """Conjectured crossing number of K_n (exact integer)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return (n // 2) * ((n - 1) // 2) * ((n - 2) // 2) * ((n - 3) // 2) // 4


def crossings_from_k_edges(n: int, vector: KEdgeVector) -> int:
    """3*C(n,4) minus the weighted k-edge sum; equals the crossing count
    of the K_n drawing whose k-edge vector is `vector`."""
    weighted = sum(k * (n - 2 - k) * ek for k, ek in enumerate(vector.counts))
    return 3 * comb(n, 4) - weighted


def crossings_from_cumulative(n: int, vector: KEdgeVector) -> int:
    """Crossing count from the double cumulative sums of `vector`.

    2 * sum_{k<=floor(n/2)-2} E_{<=<=k} - C(n,2)*floor((n-2)/2)/2
    - (1+(-1)^n)/2 * E_{<=<=floor(n/2)-2}.
    """
    sums = cumulative_sums(vector).double
    top = n // 2 - 2
    body = 2 * sum(sums[k] for k in range(top + 1))
    middle = comb(n, 2) * ((n - 2) // 2) // 2  # always integral
    parity_term = sums[top] if n % 2 == 0 and top >= 0 else 0
    return body - middle - parity_term


def double_cumulative_bound_holds(n: int, vector: KEdgeVector, k: int) -> bool:
    """Whether E_{<=<=k} >= 3*C(k+3,3), the bound bishellability forces,
    for the K_n drawing whose k-edge vector is `vector`."""
    if not 0 <= k <= n // 2 - 2:
        raise ValueError(f"k={k} out of range for n={n}")
    return cumulative_sums(vector).double[k] >= 3 * comb(k + 3, 3)
