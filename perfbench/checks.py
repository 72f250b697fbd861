"""Reference answers computed without the program under test.

Everything here works on the integer points of seeded random
rectilinear drawings, reproduced from the documented SplitMix64 stream:
orientation signs give crossings and k-edges, convex hulls give the
vertices on the unbounded face, and angular order gives the rotation
system.  Nothing imports kncross.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import comb
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

Pt = Tuple[int, int]

_MASK64 = (1 << 64) - 1
_GRID = 1_000_000


class CheckFailed(Exception):
    """An output of the program disagrees with the reference answer."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# seeded points
# ---------------------------------------------------------------------------


def _splitmix64(seed: int):
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def random_points(n: int, seed: int) -> List[Pt]:
    """The points of random drawing (n, seed): x then y per point, mod 10^6.

    Configurations that are not in general position are skipped and the
    stream continues, as the generator's documentation specifies.
    """
    stream = _splitmix64(seed)
    while True:
        pts = []
        for _ in range(n):
            x = next(stream) % _GRID
            pts.append((x, next(stream) % _GRID))
        if general_position(pts):
            return pts


def orient(p: Pt, q: Pt, r: Pt) -> int:
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def _crosses(a: Pt, b: Pt, c: Pt, d: Pt) -> bool:
    return (orient(a, b, c) * orient(a, b, d) < 0
            and orient(c, d, a) * orient(c, d, b) < 0)


def crossing_pairs(pts: Sequence[Pt]) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    edges = list(combinations(range(len(pts)), 2))
    return [((a, b), (c, d)) for (a, b), (c, d) in combinations(edges, 2)
            if len({a, b, c, d}) == 4 and _crosses(pts[a], pts[b], pts[c], pts[d])]


def general_position(pts: Sequence[Pt]) -> bool:
    """No coincident points, no collinear triple, no three concurrent segments."""
    if len(set(pts)) != len(pts):
        return False
    if any(orient(pts[i], pts[j], pts[k]) == 0
           for i, j, k in combinations(range(len(pts)), 3)):
        return False
    along: Dict[Tuple[int, int], Set[Fraction]] = {}
    for e, f in crossing_pairs(pts):
        (a, b), (c, d) = e, f
        ax, ay = pts[a]
        dx, dy = pts[b][0] - ax, pts[b][1] - ay
        ex, ey = pts[d][0] - pts[c][0], pts[d][1] - pts[c][1]
        wx, wy = pts[c][0] - ax, pts[c][1] - ay
        t = Fraction(wx * ey - wy * ex, dx * ey - dy * ex)
        seen = along.setdefault(e, set())
        if t in seen:
            return False
        seen.add(t)
        s = Fraction(wx * dy - wy * dx, dx * ey - dy * ex)
        seen = along.setdefault(f, set())
        if s in seen:
            return False
        seen.add(s)
    return True


# ---------------------------------------------------------------------------
# k-edges and crossings relative to the unbounded face
# ---------------------------------------------------------------------------


def hill(n: int) -> int:
    return (n // 2) * ((n - 1) // 2) * ((n - 2) // 2) * ((n - 3) // 2) // 4


def k_edge_vector(pts: Sequence[Pt]) -> List[int]:
    """E_k: edges with k = min(points left, points right) of their line."""
    n = len(pts)
    counts = [0] * (n // 2)
    for u, v in combinations(range(n), 2):
        left = sum(1 for w in range(n) if orient(pts[u], pts[v], pts[w]) > 0)
        counts[min(left, n - 2 - left)] += 1
    return counts


def cumulative(values: Sequence[int]) -> List[int]:
    out, run = [], 0
    for x in values:
        run += x
        out.append(run)
    return out


def analyze_expectation(pts: Sequence[Pt]) -> Tuple[int, List[int], int]:
    """n, the k-edge vector and the crossing count of a point set."""
    return len(pts), k_edge_vector(pts), len(crossing_pairs(pts))


def check_analyze(report: dict, expected: Tuple[int, List[int], int]) -> None:
    """`analyze --json` against orientation counts and its own identities."""
    n, vector, crossings = expected
    got = report["k_edge_vector"]
    require(report["n"] == n, f"n {report['n']} != {n}")
    require(got == vector, f"k-edge vector {got} != {vector}")
    require(report["crossings"] == crossings,
            f"crossings {report['crossings']} != {crossings}")
    require(report["h"] == hill(n), "wrong Harary-Hill number")
    require(report["identity_pass"] is True, "identity_pass is not true")
    require(report["cr_from_k_edges"] == report["cr_from_cumulative"]
            == report["crossings"] == report["k4_crossed"],
            "crossing identities disagree")
    require(report["k4_planar"] + report["k4_crossed"] == comb(n, 4),
            "K4 census does not cover C(n,4)")
    require(sum(got) == comb(n, 2), "sum(E) != C(n,2)")
    require(report["e_le"] == cumulative(got), "e_le is not the cumulative sum")
    require(report["e_lele"] == cumulative(cumulative(got)),
            "e_lele is not the double cumulative sum")


# ---------------------------------------------------------------------------
# shell witnesses at the unbounded face, from convex hulls
# ---------------------------------------------------------------------------


def hull_vertices(pts: Sequence[Pt], alive: Sequence[int]) -> FrozenSet[int]:
    """Indices of the convex hull vertices of the alive points."""
    order = sorted(alive, key=lambda i: pts[i])
    if len(order) < 3:
        return frozenset(order)

    def chain(seq):
        out: List[int] = []
        for i in seq:
            while len(out) >= 2 and orient(pts[out[-2]], pts[out[-1]], pts[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    return frozenset(chain(order) + chain(reversed(order)))


def unbounded_shell_witness(pts: Sequence[Pt], s: int) -> Optional[Tuple[int, ...]]:
    """An s-shell witness at the unbounded face, or None after trying all.

    Pair (r, t) holds when v_r and v_t are hull vertices once v_1..v_{r-1}
    and v_{t+1}..v_s are deleted.  Positions are filled from both ends,
    and each pair is tested at the first step that fixes all its vertices.
    """
    n = len(pts)
    fill: List[int] = []
    lo, hi = 0, s - 1
    while lo <= hi:
        fill += [lo] if lo == hi else [lo, hi]
        lo, hi = lo + 1, hi - 1
    step_of = {pos: i for i, pos in enumerate(fill)}
    due: List[List[Tuple[int, int]]] = [[] for _ in fill]
    for r, t in combinations(range(s), 2):   # 0-based positions
        needed = list(range(r + 1)) + list(range(t, s))
        due[max(step_of[p] for p in needed)].append((r, t))
    hulls: Dict[FrozenSet[int], FrozenSet[int]] = {}
    seq: List[int] = [-1] * s

    def holds(r: int, t: int) -> bool:
        deleted = frozenset(seq[:r]) | frozenset(seq[t + 1:])
        hull = hulls.get(deleted)
        if hull is None:
            hull = hull_vertices(pts, [i for i in range(n) if i not in deleted])
            hulls[deleted] = hull
        return seq[r] in hull and seq[t] in hull

    def extend(step: int) -> bool:
        if step == len(fill):
            return True
        for v in range(n):
            if v in seq:
                continue
            seq[fill[step]] = v
            if all(holds(r, t) for r, t in due[step]) and extend(step + 1):
                return True
            seq[fill[step]] = -1
        return False

    return tuple(seq) if extend(0) else None


def check_bishell_witness(text: str, n: int, s: int) -> None:
    """Structure of a bishell certificate and its disjointness condition (3)."""
    lines = text.splitlines()
    require(len(lines) == 5, f"witness has {len(lines)} lines, expected 5")
    require(lines[0] == "kncross-witness v1" and lines[1] == "bishell",
            "bad witness header")
    face = lines[2].split()
    require(len(face) == 3 and face[0] == "face", "bad face line")
    fu, fv = int(face[1]), int(face[2])
    require(0 <= fu < n and 0 <= fv < n and fu != fv, "bad face dart")
    seqs = {}
    for line, key in zip(lines[3:], ("a:", "b:")):
        parts = line.split()
        require(parts[0] == key, f"expected {key} line")
        seq = [int(x) for x in parts[1:]]
        require(len(seq) == s + 1, f"{key} has {len(seq)} vertices, expected {s + 1}")
        require(len(set(seq)) == len(seq), f"{key} repeats a vertex")
        require(all(0 <= v < n for v in seq), f"{key} vertex out of range")
        seqs[key] = seq
    a, b = seqs["a:"], seqs["b:"]
    for i in range(s + 1):
        for j in range(s + 1 - i):
            require(a[i] != b[j], f"condition (3) fails: a_{i} == b_{j}")


# ---------------------------------------------------------------------------
# rotation systems up to weak isomorphism
# ---------------------------------------------------------------------------


def _half(p: Pt) -> int:
    return 0 if p[1] > 0 or (p[1] == 0 and p[0] > 0) else 1


def rotation_system(pts: Sequence[Pt]) -> List[List[int]]:
    """Counterclockwise order of the other vertices around each vertex."""
    n = len(pts)
    system = []
    for u in range(n):
        def cmp(a: int, b: int) -> int:
            da = (pts[a][0] - pts[u][0], pts[a][1] - pts[u][1])
            db = (pts[b][0] - pts[u][0], pts[b][1] - pts[u][1])
            if _half(da) != _half(db):
                return _half(da) - _half(db)
            return -orient((0, 0), da, db)
        system.append(sorted((w for w in range(n) if w != u), key=cmp_to_key(cmp)))
    return system


def _rotated_to_min(cycle: Sequence[int]) -> Tuple[int, ...]:
    k = cycle.index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


def canonical_rotation_key(system: Sequence[Sequence[int]]) -> Tuple:
    """Least relabelled form over the 2*n*(n-1) anchored relabellings.

    An anchor is a vertex a, a first neighbor b and an orientation: a
    becomes 0 and its rotation, read from b, becomes 1..n-1.  Two
    rotation systems of K_n agree up to relabelling and global reversal
    exactly when their least forms are equal.
    """
    n = len(system)
    best = None
    for mirrored in (False, True):
        rot = [list(reversed(c)) if mirrored else list(c) for c in system]
        for a in range(n):
            for start in range(n - 1):
                label = [0] * n
                cyc = rot[a]
                for i in range(n - 1):
                    label[cyc[(start + i) % (n - 1)]] = i + 1
                by_label = sorted(range(n), key=label.__getitem__)
                form = tuple(_rotated_to_min([label[w] for w in rot[u]])
                             for u in by_label)
                if best is None or form < best:
                    best = form
    return best


def hunt_expectation(n: int, first_seed: int, trials: int) -> Tuple[int, List[Tuple[int, int]]]:
    """Distinct drawings and the (seed, crossings) of optimal ones, in trial order."""
    seen: Set[Tuple[int, Tuple]] = set()
    matches: List[Tuple[int, int]] = []
    for seed in range(first_seed, first_seed + trials):
        pts = random_points(n, seed)
        crossings = len(crossing_pairs(pts))
        key = (crossings, canonical_rotation_key(rotation_system(pts)))
        if key in seen:
            continue
        seen.add(key)
        if crossings == hill(n):
            matches.append((seed, crossings))
    return len(seen), matches
