"""k-edge statistics and the crossing number identities they satisfy.

For a drawing with a reference face F, every edge uv and every other
vertex w span a triangle; in a good drawing it is a simple closed curve
that separates the sphere into two regions.  w is labelled R when F
lies on the same side of it as the face left of the first dart u->v,
and L otherwise, and uv is a k-edge for k the smaller label count.

The one side-of oracle, `right_mask(drawing, u, v)`, is the bitmask of
the vertices labelled R for the dart u->v.  The XOR of the parity masks
(`Drawing.face_parity`) of F and of the face left of u->v has bit e set
when a dual path between the two faces crosses edge e an odd number of
times.  By the Jordan curve theorem the two faces lie on the same side
of the triangle uvw exactly when bits uv, vw and uw sum to an even
number, so each label is three bit tests.  `k_value` counts the R bits
within a vertex bitmask, and `k_edge_vector` is a histogram of the
counts.  Goodness, which the argument assumes, is checked when the
drawing is built.  Vectors are always taken relative to the stored
reference face; use Drawing.with_reference to re-reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Optional, Tuple

from .drawing import Drawing, edge_ids


@dataclass(frozen=True)
class KEdgeVector:
    """Counts E_0 .. E_{floor(n/2)-1} relative to the drawing's reference face."""

    counts: Tuple[int, ...]


@dataclass(frozen=True)
class CumulativeSums:
    single: Tuple[int, ...]   # E_{<=k}
    double: Tuple[int, ...]   # E_{<=<=k}


def right_mask(drawing: Drawing, u: int, v: int) -> int:
    """Bitmask of the vertices w outside {u, v} labelled R for u->v.

    w is R exactly when the reference face lies on the same side of the
    triangle uvw as the face left of the first dart u->v.
    """
    parity = drawing.face_parity
    mask = parity[drawing.reference_face] ^ parity[drawing.face_left_of(u, v)]
    n = drawing.n
    ids = edge_ids(n)
    row_u, row_v = ids[u], ids[v]
    mask_uv = mask >> row_u[v]
    rights = 0
    for w in range(n):
        if (w != u and w != v
                and not (mask_uv ^ mask >> row_u[w] ^ mask >> row_v[w]) & 1):
            rights |= 1 << w
    return rights


def k_value(drawing: Drawing, edge: Tuple[int, int],
            alive: Optional[int] = None) -> int:
    """k-value of an edge in the subdrawing on the `alive` vertex bitmask.

    `None` means all n vertices; an edge with an endpoint outside it is
    refused.  Side labels are triangle-local, hence identical in the
    subdrawing and the full drawing; only the range of w shrinks.
    """
    u, v = edge
    if alive is None:
        alive = (1 << drawing.n) - 1
    elif alive >> drawing.n:  # also true of every negative mask
        raise ValueError(f"alive mask {alive:#x} out of range")
    mask = right_mask(drawing, u, v)  # refuses a bad u or v first
    if not alive >> u & alive >> v & 1:
        raise ValueError(f"edge ({u},{v}) is not in the subdrawing on {alive:#x}")
    others = alive & ~(1 << u | 1 << v)
    rights = (mask & others).bit_count()
    return min(rights, others.bit_count() - rights)


def k_edge_vector(drawing: Drawing) -> KEdgeVector:
    """Histogram of k-values over all edges, relative to the reference face."""
    n = drawing.n
    counts = [0] * (n // 2)
    for u, v in drawing.edges:
        rights = right_mask(drawing, u, v).bit_count()
        counts[min(rights, n - 2 - rights)] += 1
    return KEdgeVector(counts=tuple(counts))


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
