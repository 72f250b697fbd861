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
counts, the tuple E_0 .. E_{floor(n/2)-1}; the identities below are
functions of n and that tuple alone, and each refuses a tuple that does
not have floor(n/2) entries.  They and `cumulative_sums` refuse an
entry that is not a count, an int of at least 0.  Goodness, which the
argument assumes, is checked when the drawing is built.  Vectors are always
taken relative to the stored reference face; use Drawing.with_reference
to re-reference.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import Optional, Tuple

from .drawing import Drawing, _check_mask, _check_n, edge_ids


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
    _check_mask(drawing.n, alive, "alive")
    mask = right_mask(drawing, u, v)  # refuses a bad u or v first
    if not alive >> u & alive >> v & 1:
        raise ValueError(f"edge ({u},{v}) is not in the subdrawing on {alive:#x}")
    others = alive & ~(1 << u | 1 << v)
    rights = (mask & others).bit_count()
    return min(rights, others.bit_count() - rights)


def k_edge_vector(drawing: Drawing) -> Tuple[int, ...]:
    """E_0 .. E_{floor(n/2)-1}, relative to the reference face."""
    n = drawing.n
    counts = [0] * (n // 2)
    for u, v in drawing.edges:
        rights = right_mask(drawing, u, v).bit_count()
        counts[min(rights, n - 2 - rights)] += 1
    return tuple(counts)


def cumulative_sums(vector: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The pair (E_{<=k}, E_{<=<=k}) of running sums of a k-edge vector."""
    _check_entries(vector)
    single = tuple(accumulate(vector))
    return single, tuple(accumulate(single))


def hill_number(n: int) -> int:
    """Conjectured crossing number of K_n (exact integer)."""
    _check_n(n, 1)
    return (n // 2) * ((n - 1) // 2) * ((n - 2) // 2) * ((n - 3) // 2) // 4


def _check_entries(vector: Tuple[int, ...]) -> None:
    """Refuse a k-edge vector with an entry that is not a count, an int >= 0."""
    for entry in vector:
        if not (isinstance(entry, int) and entry >= 0):
            raise ValueError(f"k-edge vector entry {entry!r} is not an int >= 0")


def _check_length(n: int, vector: Tuple[int, ...]) -> None:
    _check_n(n, 1)
    if len(vector) != n // 2:
        raise ValueError(f"a k-edge vector of K_{n} has {n // 2} entries, "
                         f"not {len(vector)}")
    _check_entries(vector)


def crossings_from_k_edges(n: int, vector: Tuple[int, ...]) -> int:
    """3*C(n,4) minus the weighted k-edge sum; equals the crossing count
    of the K_n drawing whose k-edge vector is `vector`."""
    _check_length(n, vector)
    weighted = sum(k * (n - 2 - k) * ek for k, ek in enumerate(vector))
    return 3 * comb(n, 4) - weighted


def crossings_from_cumulative(n: int, vector: Tuple[int, ...]) -> int:
    """Crossing count from the double cumulative sums of `vector`.

    2 * sum_{k<=floor(n/2)-2} E_{<=<=k} - C(n,2)*floor((n-2)/2)/2
    - (1+(-1)^n)/2 * E_{<=<=floor(n/2)-2}.
    """
    _check_length(n, vector)
    _, sums = cumulative_sums(vector)
    top = n // 2 - 2
    body = 2 * sum(sums[k] for k in range(top + 1))
    middle = comb(n, 2) * ((n - 2) // 2) // 2  # always integral
    parity_term = sums[top] if n % 2 == 0 and top >= 0 else 0
    return body - middle - parity_term


def double_cumulative_bound_holds(n: int, vector: Tuple[int, ...], k: int) -> bool:
    """Whether E_{<=<=k} >= 3*C(k+3,3), the bound bishellability forces,
    for the K_n drawing whose k-edge vector is `vector`."""
    _check_length(n, vector)
    if not (isinstance(k, int) and 0 <= k <= n // 2 - 2):
        raise ValueError(f"k={k} out of range for n={n}")
    return cumulative_sums(vector)[1][k] >= 3 * comb(k + 3, 3)
