"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from math import comb
from types import SimpleNamespace
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import pytest

from kncross.drawing import (
    DeletionView,
    Drawing,
    Geometry,
    GoodnessViolation,
    MapError,
    NotGoodDrawing,
    PointsGeometry,
    TwoPageGeometry,
    build_drawing,
    edge_ids,
    edge_list,
    subdrawing,
)
from kncross.generators import (
    SplitMix64,
    TwoPageSpec,
    _assemble_cylindrical,
    _assemble_twopage,
    _cylindrical_parameters,
    gen_convex,
    gen_cylindrical,
    gen_random_points,
    gen_twopage,
    twopage_all_top,
)
from kncross.geom import Point, proper_intersection
from kncross.planarize import Arrangement, DegenerateInput, planarize_points
from kncross.shelling import BishellWitness, ShellWitness, _bits, _greedy_peel, _view


# ---------------------------------------------------------------------------
# hand-built K4 fixtures
# ---------------------------------------------------------------------------


def planar_k4() -> Drawing:
    """Outer triangle 0,1,2 counterclockwise, vertex 3 at the centroid.

    Reference face: outer (left of the dart 1->0).
    """
    rotations = [(1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 0, 1)]
    return build_drawing(4, [()] * 6, 0, rotations, reference=(1, 0))


@pytest.fixture(scope="session")
def k4_planar():
    return planar_k4()


@pytest.fixture(scope="session")
def k4_crossed():
    return gen_convex(4)


# ---------------------------------------------------------------------------
# corpus of generated drawings (session scoped; tests share it)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def small_corpus():
    """Mixed families with n <= 7, each one `regenerate_subdrawing` rebuilds."""
    drawings = []
    for n in range(4, 8):
        drawings.append(("convex", n, gen_convex(n)))
        drawings.append(("cylindrical", n, gen_cylindrical(n)))
    for n in (4, 5, 6):
        drawings.append(("twopage", n, gen_twopage(twopage_all_top(n))))
    pages = tuple(["T" if sum(e) % 2 else "B" for e in edge_list(6)])
    drawings.append(("twopage-mixed", 6, gen_twopage(TwoPageSpec(tuple(range(6)), pages))))
    for n, seed in ((5, 11), (6, 5), (7, 3)):
        drawings.append(("random", n, gen_random_points(n, seed)))
    return drawings


@pytest.fixture(scope="session")
def oracle_corpus(small_corpus):
    """The small corpus, random K_7..K_14, convex K_4..K_12, tin can
    K_5..K_11 and the all-top book K_9."""
    drawings = [drawing for _name, _n, drawing in small_corpus]
    drawings += [gen_random_points(n, n) for n in range(7, 15)]
    drawings += [gen_convex(n) for n in range(4, 13)]
    drawings += [gen_cylindrical(n) for n in range(5, 12)]
    drawings.append(gen_twopage(twopage_all_top(9)))
    return drawings


def shuffled_twopage_spec(seed: int) -> TwoPageSpec:
    """A spec on 3..9 vertices with a shuffled spine and random pages; at
    every fifth seed each edge of the first spine vertex is on the bottom
    page."""
    rng = SplitMix64(seed)
    n = 3 + seed % 7
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    pages = ["TB"[rng.below(2)] for _ in edge_list(n)]
    if seed % 5 == 0:
        for e, edge in enumerate(edge_list(n)):
            if order[0] in edge:
                pages[e] = "B"
    return TwoPageSpec(tuple(order), tuple(pages))


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def _sign(value: Fraction) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of det(q - p, r - p): +1 counterclockwise, 0 collinear, -1 clockwise."""
    return _sign((q - p).cross(r - p))


def brute_force_crossing_count(points: Sequence[Point]) -> int:
    """Independent double loop over segment pairs."""
    pts = list(points)
    edges = list(itertools.combinations(range(len(pts)), 2))
    count = 0
    for (a, b), (c, d) in itertools.combinations(edges, 2):
        if {a, b} & {c, d}:
            continue
        if proper_intersection(pts[a], pts[b], pts[c], pts[d]) is not None:
            count += 1
    return count


def brute_k_vector(points) -> tuple:
    """k-edge vector of a rectilinear drawing straight from orientations.

    With the unbounded face as reference, w gets side L relative to the
    directed edge uv exactly when it lies left of the line through uv.
    """
    n = len(points)
    counts = [0] * (n // 2)
    for u, v in itertools.combinations(range(n), 2):
        lefts = sum(1 for w in range(n)
                    if w not in (u, v) and orient(points[u], points[v], points[w]) > 0)
        counts[min(lefts, n - 2 - lefts)] += 1
    return tuple(counts)


def vertex_mask(vertices) -> int:
    """Bitmask of a set of vertices, as `DeletionView` takes it."""
    return sum(1 << v for v in set(vertices))


def vertex_faces(drawing: Drawing) -> Set[int]:
    """The faces some vertex touches: the left faces of the first darts."""
    return {drawing.face_left_of(u, v)
            for u, v in itertools.permutations(range(drawing.n), 2)}


def view_classes(drawing: Drawing, view: DeletionView) -> List[int]:
    """The least face of the class of every base face in `view`."""
    return [view.class_of(face) for face in range(drawing.face_count)]


# Face classes of the view that keeps only a triangle, per (map, triangle).
# Keyed by the identity of `dart_faces`, which `with_reference` shares, so
# re-referencing reuses the classes; the entry keeps the tuple alive.
_triangle_classes: Dict[Tuple[int, FrozenSet[int]], Tuple[tuple, Sequence[int]]] = {}


def view_side(drawing: Drawing, u: int, v: int, w: int) -> str:
    """Side label of w for the directed edge u->v, from a deletion view.

    Deletes every vertex but u, v and w, so the faces merge into the two
    sides of the triangle; w is "R" when the reference face falls in the
    class of the face left of the first dart u->v.  This is the slow
    path that `kedges.right_mask` replaces.
    """
    triple = frozenset((u, v, w))
    assert len(triple) == 3
    key = (id(drawing.dart_faces), triple)
    hit = _triangle_classes.get(key)
    if hit is None:
        kept = vertex_mask(triple)
        classes = view_classes(drawing, DeletionView(drawing, (1 << drawing.n) - 1 ^ kept))
        assert len(set(classes)) == 2, "a triangle must split the sphere in two"
        hit = _triangle_classes[key] = (drawing.dart_faces, classes)
    classes = hit[1]
    same = classes[drawing.reference_face] == classes[drawing.face_left_of(u, v)]
    return "R" if same else "L"


def view_k_vector(drawing: Drawing) -> tuple:
    """k-edge vector from `view_side` labels."""
    n = drawing.n
    counts = [0] * (n // 2)
    for u, v in drawing.edges:
        rights = sum(1 for w in range(n)
                     if w not in (u, v) and view_side(drawing, u, v, w) == "R")
        counts[min(rights, n - 2 - rights)] += 1
    return tuple(counts)


def _crossing_alive(drawing: Drawing, k: int, survivors: set) -> bool:
    e1, e2 = drawing.crossed_edges[2 * k:2 * k + 2]
    return all(v in survivors
               for e in (e1, e2) for v in drawing.edges[e])


# ---------------------------------------------------------------------------
# subdrawings by re-running a family's construction on the surviving
# coordinates: the slow path of `subdrawing`
# ---------------------------------------------------------------------------


def regenerate_subdrawing(drawing: Drawing,
                          survivors: Set[int]) -> Tuple[Drawing, Dict[int, int]]:
    """Fresh drawing of the subgraph on `survivors`, from the provenance.

    Returns the rebuilt drawing together with the old-to-new vertex
    relabelling (order preserving).  Points and two-page drawings carry
    their coordinates; a drawing without geometry is taken for a tin can
    only when the generator's recipe, `_cylindrical_parameters(n, 0)`
    assembled, gives back its map, and is rebuilt from that recipe
    restricted to the survivors.  Any other drawing is refused.
    """
    geom = drawing.geometry
    keep = sorted(survivors)
    if len(keep) < 3:
        raise ValueError("need at least 3 survivors")
    relabel = {old: new for new, old in enumerate(keep)}

    if isinstance(geom, PointsGeometry):
        return planarize_points([geom.points[v] for v in keep]), relabel

    if isinstance(geom, TwoPageGeometry):
        order = tuple(relabel[v] for v in geom.order if v in survivors)
        pages = tuple([page for (u, v), page in zip(drawing.edges, geom.pages)
                       if u in survivors and v in survivors])
        positions = [geom.positions[v] for v in keep]
        spec = TwoPageSpec(order=order, pages=pages)
        return _assemble_twopage(spec, positions), relabel

    if geom is None:
        outer, inner, outer_lids, inner_lids = _cylindrical_parameters(drawing.n, 0)
        tin_can = _assemble_cylindrical(outer, inner, outer_lids, inner_lids)
        if tin_can._replace(reference_face=drawing.reference_face) == drawing:
            # vertex ids: the outer circle's, then the inner circle's
            outer_keep = [v for v in keep if v < len(outer)]
            inner_keep = [v - len(outer) for v in keep if v >= len(outer)]
            return _assemble_cylindrical(
                [outer[i] for i in outer_keep],
                [inner[j] for j in inner_keep],
                [outer_lids[i] for i in outer_keep],
                [inner_lids[j] for j in inner_keep],
            ), relabel

    raise ValueError("drawing has no geometric provenance")


def assert_view_matches_replanarization(drawing: Drawing, deleted: set) -> None:
    """Face classes of a deletion view vs the faces of `subdrawing`, face
    by face; the subdrawing's reference is the face of the class of the
    old one."""
    survivors = set(range(drawing.n)) - set(deleted)
    keep = sorted(survivors)
    relabel = {old: new for new, old in enumerate(keep)}
    sub = subdrawing(drawing, vertex_mask(survivors))
    classes = view_classes(drawing, DeletionView(drawing, vertex_mask(deleted)))

    class_to_face = {}
    faces_seen = set()
    for u, v in itertools.combinations(sorted(survivors), 2):
        old_eid = edge_ids(drawing.n)[u][v]
        new_eid = edge_ids(sub.n)[relabel[u]][relabel[v]]
        old_path = drawing.edge_paths[old_eid]
        new_path = sub.edge_paths[new_eid]
        surviving = [k for k in old_path if _crossing_alive(drawing, k, survivors)]
        assert len(surviving) == len(new_path), "crossing counts differ on an edge"
        for old_k, new_k in zip(surviving, new_path):
            old_pair = sorted(
                tuple(sorted((relabel[a], relabel[b])))
                for a, b in (drawing.edges[e]
                             for e in drawing.crossed_edges[2 * old_k:2 * old_k + 2]))
            new_pair = sorted(
                tuple(sorted(sub.edges[e]))
                for e in sub.crossed_edges[2 * new_k:2 * new_k + 2])
            assert old_pair == new_pair, "crossing identities differ on an edge"

        old_faces = drawing.dart_faces[old_eid]
        new_faces = sub.dart_faces[new_eid]
        alive_prefix = 0
        for seg in range(len(old_path) + 1):
            # offset 0 is the forward dart of the segment, 1 its twin
            for offset in (0, 1):
                cls = classes[old_faces[2 * seg + offset]]
                face = new_faces[2 * alive_prefix + offset]
                if cls in class_to_face:
                    assert class_to_face[cls] == face, "face classes split"
                else:
                    class_to_face[cls] = face
                faces_seen.add(face)
            if seg < len(old_path) and _crossing_alive(drawing, old_path[seg], survivors):
                alive_prefix += 1

    assert len(set(class_to_face.values())) == len(class_to_face), "classes merged"
    assert faces_seen == set(range(sub.face_count))
    assert len(set(classes)) == sub.face_count
    assert sub.reference_face == class_to_face[classes[drawing.reference_face]]


# ---------------------------------------------------------------------------
# deletion views by a union-find with a find closure: the slow path of
# `DeletionView`
# ---------------------------------------------------------------------------


def reference_deletion_view(base: Drawing,
                            deleted: int) -> Tuple[List[int], Dict[int, int]]:
    """`(classes, by_root)` of the vertex bitmask `deleted`, from a
    union-find that hangs the right side's root below the left side's and
    then resolves every face whose parent is not a root.  A class is named
    by whichever face the union order leaves at its root, so only the
    partition and the incidence of each face,
    `by_root.get(classes[face], 0)`, compare with `DeletionView`."""
    n = base.n
    if deleted >> n:  # also true of every negative mask
        raise ValueError(
            f"deleted mask {deleted:#x} has a vertex outside 0..{n - 1}")
    gone = 0
    root = list(range(base.face_count))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    # delete the new vertices in ascending order; each removes its edges
    # to the vertices not deleted yet
    dart_faces, ids = base.dart_faces, edge_ids(n)
    for v in range(n):
        bit = 1 << v
        if not deleted & bit or gone & bit:
            continue
        gone |= bit
        row = ids[v]
        for w in range(n):
            if gone >> w & 1:
                continue
            faces = dart_faces[row[w]]
            for left, right in zip(faces[::2], faces[1::2]):
                a, b = find(left), find(right)
                if a != b:
                    root[b] = a
    for i, p in enumerate(root):
        if root[p] != p:
            root[i] = find(p)

    alive = [u for u in range(n) if not deleted >> u & 1]
    by_root: Dict[int, int] = {}
    for u in alive:
        for w in alive:
            if w != u:
                r = root[base.face_left_of(u, w)]
                by_root[r] = by_root.get(r, 0) | 1 << u
    return root, by_root


# ---------------------------------------------------------------------------
# map assembly and K4 census: the slow paths of `drawing`
# ---------------------------------------------------------------------------


def reference_build_drawing(
    n: int,
    edge_paths: Sequence[Sequence[int]],
    crossings: int,
    vertex_rotations: Sequence[Sequence[int]],
    reference: Tuple[int, int],
    geometry: Optional[Geometry] = None,
) -> Drawing:
    """`build_drawing` with per-dart closures, a sorted edge pair per
    crossing, restricted rotations for the bits and the face orbits kept
    as tuples: the slow path of the out-dart table and the K_4 rule.
    Raises what `build_drawing` raises, with the same messages, and keeps
    each rotation from its least neighbour, as `build_drawing` does.  Its
    own table of the face left of every first dart is asserted equal to
    `face_left_of`, which reads `dart_faces`."""
    if n < 3:
        raise ValueError("need n >= 3")
    if crossings < 0:
        raise ValueError(f"negative crossing count {crossings}")
    edges = list(itertools.combinations(range(n), 2))
    c = crossings

    if len(edge_paths) != len(edges):
        raise ValueError(f"need {len(edges)} edge paths, got {len(edge_paths)}")
    paths = [tuple(path) for path in edge_paths]

    # rotations, then each path whole in edge order, then the reference
    # dart, each refusal naming its part; only then the crossing counts
    if len(vertex_rotations) != n:
        raise ValueError("need one rotation per vertex")
    for u, rot in enumerate(vertex_rotations):
        if sorted(rot) != [w for w in range(n) if w != u]:
            raise MapError(
                ("rot", u), f"rotation at {u} is not a permutation of the other vertices")

    # each crossing must be an interior point of exactly two edges
    usage: List[List[Tuple[int, int]]] = [[] for _ in range(c)]
    for eid, path in enumerate(paths):
        if len(set(path)) != len(path):
            raise MapError(
                ("e", *edges[eid]), f"edge {edges[eid]} visits a crossing twice")
        for pos, k in enumerate(path):
            if not 0 <= k < c:
                raise MapError(("e", *edges[eid]), f"crossing id {k} out of range")
            usage[k].append((eid, pos))
    ru, rv = reference
    if ru == rv or not (0 <= ru < n and 0 <= rv < n):
        raise MapError(("ref",), f"bad reference dart ({ru},{rv})")
    for k, us in enumerate(usage):
        if len(us) != 2:
            raise ValueError(
                f"crossing {k} met by {len(us)} edge passes, expected 2")

    # goodness before the bits, which the K_4 rule reads off two disjoint edges
    crossed_edges = tuple(
        e for us in usage for e in (min(us[0][0], us[1][0]), max(us[0][0], us[1][0])))
    violations = goodness_violations(SimpleNamespace(edges=edges, crossed_edges=crossed_edges))
    if violations:
        raise NotGoodDrawing(violations)
    bits = rotation_bits(edges, crossed_edges, vertex_rotations)

    # dart layout: per edge, (forward, backward) per segment
    dart_base: List[int] = []
    total = 0
    for path in paths:
        dart_base.append(total)
        total += 2 * (len(path) + 1)

    def fwd(eid: int, seg: int) -> int:
        return dart_base[eid] + 2 * seg

    def first_dart(u: int, w: int) -> int:
        a, b = (u, w) if u < w else (w, u)
        eid = a * n - a * (a + 1) // 2 + (b - a - 1)
        if u < w:
            return dart_base[eid]
        return dart_base[eid] + 2 * len(paths[eid]) + 1

    rot_next = [-1] * total

    def set_next(d: int, e: int) -> None:
        if rot_next[d] != -1:
            raise ValueError("rotation assigns a dart twice")
        rot_next[d] = e

    for u, rot in enumerate(vertex_rotations):
        darts = [first_dart(u, w) for w in rot]
        for i, d in enumerate(darts):
            set_next(d, darts[(i + 1) % len(darts)])

    for k, us in enumerate(usage):
        (e1, p1), (e2, p2) = sorted(us)
        e_fwd = fwd(e1, p1 + 1)
        e_bwd = fwd(e1, p1) + 1
        f_fwd = fwd(e2, p2 + 1)
        f_bwd = fwd(e2, p2) + 1
        if bits[k] == "+":
            cycle = (e_fwd, f_fwd, e_bwd, f_bwd)
        else:
            cycle = (e_fwd, f_bwd, e_bwd, f_fwd)
        for i, d in enumerate(cycle):
            set_next(d, cycle[(i + 1) % 4])

    if -1 in rot_next:
        raise ValueError("some dart never appears in a rotation")

    # faces: orbits of succ(d) = rot_next(twin(d)), twin(d) = d ^ 1.
    # With counterclockwise rotations such an orbit walks the face lying to
    # the RIGHT of its darts, so the face to the left of d is the orbit of
    # its twin.
    orbit = [-1] * total
    face_darts: List[Tuple[int, ...]] = []
    for d0 in range(total):
        if orbit[d0] != -1:
            continue
        fid = len(face_darts)
        walk = []
        d = d0
        while orbit[d] == -1:
            orbit[d] = fid
            walk.append(d)
            d = rot_next[d ^ 1]
        if d != d0:
            raise ValueError("face walk does not close")
        face_darts.append(tuple(walk))
    dart_face = [orbit[d ^ 1] for d in range(total)]

    nodes = n + c
    nedges = len(edges) + 2 * c
    if nodes - nedges + len(face_darts) != 2:
        raise ValueError(
            f"V-E+F = {nodes}-{nedges}+{len(face_darts)} != 2")

    reference_face = dart_face[first_dart(ru, rv)]

    dart_faces = tuple(
        tuple(dart_face[fwd(eid, s) + offset]
              for s in range(len(paths[eid]) + 1) for offset in (0, 1))
        for eid in range(len(edges))
    )
    out_left = tuple(
        tuple(dart_face[first_dart(u, w)] if w != u else -1 for w in range(n))
        for u in range(n)
    )

    # dual walk from face 0: stepping across a segment of edge e flips bit
    # e.  The darts of a face's orbit have it on their right, so each leads
    # to the face on its left.
    dart_edge = [eid for eid, path in enumerate(paths)
                 for _ in range(2 * (len(path) + 1))]
    parity: List[Optional[int]] = [None] * len(face_darts)
    parity[0] = 0
    stack = [0]
    while stack:
        f = stack.pop()
        for d in face_darts[f]:
            g = dart_face[d]
            if parity[g] is None:
                parity[g] = parity[f] ^ (1 << dart_edge[d])
                stack.append(g)
    if None in parity:
        raise ValueError("some face is not reachable from face 0")

    drawing = Drawing(
        n=n,
        edges=tuple(edges),
        edge_paths=tuple(paths),
        crossed_edges=crossed_edges,
        orientation_bits=tuple(bits),
        vertex_rotations=tuple(_canon(r) for r in vertex_rotations),
        dart_count=total,
        face_count=len(face_darts),
        reference_face=reference_face,
        dart_faces=dart_faces,
        face_parity=tuple(parity),
        geometry=geometry,
    )
    assert all(out_left[u][w] == drawing.face_left_of(u, w)
               for u, w in itertools.permutations(range(n), 2))
    return drawing


def rotation_bits(edges, crossed_edges, vertex_rotations) -> Tuple[str, ...]:
    """The orientation bit of every crossing of a good drawing from its
    rotations: the slow path of the K_4 rule in `build_drawing`.  For a
    crossing of edges ab < cd, the rotation at a, the least end, is
    restricted to b, c and d and read from the least of them, as
    `rotation_crossings` restricts, and the bit is '+' exactly when these
    differ: the three read ascending, and b is the second or the fourth
    smallest of the four ends."""
    bits = []
    for e1, e2 in zip(crossed_edges[::2], crossed_edges[1::2]):
        (a, b), (c, d) = edges[e1], edges[e2]
        others = sorted((b, c, d))
        restricted = [w for w in vertex_rotations[a] if w in others]
        start = restricted.index(others[0])
        ascending = restricted[start:] + restricted[:start] == others
        bits.append("+" if ascending != (b != others[1]) else "-")
    return tuple(bits)


def goodness_violations(drawing: Drawing) -> Tuple[GoodnessViolation, ...]:
    """The goodness violations of a map by a loop over its crossings, then
    a count per edge pair over all pairs: the slow path of `build_drawing`'s
    goodness check.  Adjacent crossings come in crossing order, then every
    pair crossed more than once in edge-pair order."""
    edges = drawing.edges
    pairs = list(zip(drawing.crossed_edges[::2], drawing.crossed_edges[1::2]))
    found = []
    for e1, e2 in pairs:
        if set(edges[e1]) & set(edges[e2]):
            found.append(GoodnessViolation("adjacent_cross", (edges[e1], edges[e2])))
    times = Counter(tuple(sorted(pair)) for pair in pairs)
    for e1, e2 in itertools.combinations(range(len(edges)), 2):
        if times[(e1, e2)] > 1:
            found.append(GoodnessViolation("double_cross", (edges[e1], edges[e2])))
    return tuple(found)


# build_drawing's refusals of an incoherent map, by message
MAP_REFUSALS = {
    "euler": r"^V-E\+F = \d+-\d+\+\d+ != 2$",
    "crossing degree": r"^crossing \d+ met by \d+ edge passes, expected 2$",
    "path/rotation": (r"^(need \d+ edge paths, got \d+"
                      r"|edge \(\d+, \d+\) visits a crossing twice"
                      r"|crossing id -?\d+ out of range"
                      r"|rotation at \d+ is not a permutation of the other vertices)$"),
}


def build_outcome(build, *args):
    """Every field of the built Drawing, or the refusal's class, message
    and goodness violations."""
    try:
        drawing = build(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "violations", None)
    return tuple((name, getattr(drawing, name)) for name in drawing._fields)


def loop_k4_census(drawing: Drawing) -> Tuple[int, int]:
    """The (planar, crossed) K4 counts by a loop over all C(n,4) vertex
    sets, a K4 being crossed when two of its edges cross: the slow path
    of the census `kncross analyze` reads off the crossing count."""
    crossing_pairs = {frozenset(pair) for pair in zip(drawing.crossed_edges[::2],
                                                      drawing.crossed_edges[1::2])}
    eid = edge_ids(drawing.n)
    crossed = 0
    for a, b, c, d in itertools.combinations(range(drawing.n), 4):
        if (frozenset((eid[a][b], eid[c][d])) in crossing_pairs
                or frozenset((eid[a][c], eid[b][d])) in crossing_pairs
                or frozenset((eid[a][d], eid[b][c])) in crossing_pairs):
            crossed += 1
    return comb(drawing.n, 4) - crossed, crossed


# which pair of a 4-set a < b < c < d crosses, by (beta_a ^ beta_b, beta_a ^ beta_c)
K4_CROSSING = {(1, 0): None, (1, 1): ((0, 1), (2, 3)), (0, 0): ((0, 2), (1, 3)),
               (0, 1): ((0, 3), (1, 2))}


def rotation_crossings(vertex_rotations) -> Set[Tuple[int, int]]:
    """The (first, second) edge id pairs that cross in a good drawing of
    K_n with these rotations, from the rotations alone: the slow path of
    `Drawing.crossed_edges`.  For every 4-set a < b < c < d, beta_v is 1
    when v's rotation, restricted to the other three and read from the
    least of them, lists them in ascending order; the parity of the four
    betas is even in every good drawing, and `K4_CROSSING` names the pair
    that crosses, if any, from the betas of a, b and c."""
    n = len(vertex_rotations)
    eid = edge_ids(n)
    pairs = set()
    for quad in itertools.combinations(range(n), 4):
        beta = []
        for v in quad:
            others = [w for w in quad if w != v]
            restricted = [w for w in vertex_rotations[v] if w in others]
            start = restricted.index(others[0])
            beta.append(int(restricted[start:] + restricted[:start] == others))
        if sum(beta) % 2:
            raise ValueError(f"no good drawing has the rotations of 4-set {quad}")
        crossing = K4_CROSSING[beta[0] ^ beta[1], beta[0] ^ beta[2]]
        if crossing:
            (i, j), (k, m) = crossing
            pairs.add((eid[quad[i]][quad[j]], eid[quad[k]][quad[m]]))
    return pairs


# ---------------------------------------------------------------------------
# triangle flips
# ---------------------------------------------------------------------------


def crossing_triangles(drawing: Drawing) -> List[FrozenSet[int]]:
    """The crossings around each face bounded by three crossing segments,
    in face order.  A face walk turns at every crossing onto the other
    edge, so the three sides lie on three edges that cross pairwise at
    the corners."""
    sides: Dict[int, List[Tuple[int, int]]] = {}
    for eid, faces in enumerate(drawing.dart_faces):
        for dart, face in enumerate(faces):
            sides.setdefault(face, []).append((eid, dart // 2))
    triangles = []
    for face in sorted(sides):
        found = sides[face]
        if len(found) == 3 and all(0 < seg < len(drawing.edge_paths[eid])
                                   for eid, seg in found):
            triangles.append(frozenset(
                k for eid, seg in found for k in drawing.edge_paths[eid][seg - 1:seg + 1]))
    return triangles


def flip_triangle(drawing: Drawing, triangle: FrozenSet[int]) -> Drawing:
    """Move one side of the triangle bounded by the crossings `triangle`
    across the crossing of the other two (a Reidemeister III move): on
    each of the three paths the triangle's two crossings are adjacent and
    trade places, and every orientation bit stays.  `build_drawing`
    rebuilds the map without geometry, deriving the bits anew; the same
    crossings bound a face of the result, so flipping them again restores
    the map."""
    paths = []
    for path in drawing.edge_paths:
        spots = [i for i, k in enumerate(path) if k in triangle]
        path = list(path)
        if spots:
            i, j = spots
            assert j == i + 1, "a side of the triangle is not one segment"
            path[i], path[j] = path[j], path[i]
        paths.append(path)
    return build_drawing(drawing.n, paths, drawing.crossings, drawing.vertex_rotations,
                         drawing.face_dart(drawing.reference_face))


# ---------------------------------------------------------------------------
# exact-Fraction planarization: the slow path of `planarize`
# ---------------------------------------------------------------------------


def fraction_validate_points(points) -> None:
    """General-position check with `Fraction` orientation tests."""
    pts = list(points)
    for i, j in itertools.combinations(range(len(pts)), 2):
        if pts[i] == pts[j]:
            raise DegenerateInput("coincident", (i, j))
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        if orient(pts[i], pts[j], pts[k]) == 0:
            raise DegenerateInput("collinear", (i, j, k))


def _fraction_parameter(a1, a2, p) -> Fraction:
    # t of p = a1 + t*(a2 - a1), p on the line
    d = a2 - a1
    if d.x != 0:
        return (p.x - a1.x) / d.x
    return (p.y - a1.y) / d.y


def _fraction_direction_cmp(a, b) -> int:
    # counterclockwise from the +x axis
    ha = 0 if (a.y > 0 or (a.y == 0 and a.x > 0)) else 1
    hb = 0 if (b.y > 0 or (b.y == 0 and b.x > 0)) else 1
    if ha != hb:
        return ha - hb
    cross = a.cross(b)
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def fraction_segment_arrangement(points) -> Arrangement:
    """`segment_arrangement` from `Fraction` crossing points and parameters."""
    pts = list(points)
    n = len(pts)
    edges = list(itertools.combinations(range(n), 2))
    k = 0
    per_edge: List[List[Tuple[Fraction, int]]] = [[] for _ in edges]
    for ea, eb in itertools.combinations(range(len(edges)), 2):
        (a, b), (c, d) = edges[ea], edges[eb]
        if {a, b} & {c, d}:
            continue
        hit = proper_intersection(pts[a], pts[b], pts[c], pts[d])
        if hit is None:
            continue
        per_edge[ea].append((_fraction_parameter(pts[a], pts[b], hit), k))
        per_edge[eb].append((_fraction_parameter(pts[c], pts[d], hit), k))
        k += 1

    edge_paths = []
    for eid, hits in enumerate(per_edge):
        hits.sort()
        for (t1, k1), (t2, k2) in zip(hits, hits[1:]):
            if t1 == t2:
                raise DegenerateInput("concurrent", (edges[eid], k1, k2))
        edge_paths.append(tuple(k for _, k in hits))

    vertex_orders = []
    for u in range(n):
        dirs = [(pts[w] - pts[u], w) for w in range(n) if w != u]
        dirs.sort(key=cmp_to_key(lambda p, q: _fraction_direction_cmp(p[0], q[0])))
        vertex_orders.append(tuple(w for _, w in dirs))
    return Arrangement(k, tuple(edge_paths), tuple(vertex_orders))


def fraction_orientation_bits(points) -> Tuple[str, ...]:
    """The orientation bit of every crossing of `fraction_segment_arrangement`,
    from geometry alone: '+' when the turn from the first segment ab to the
    second cd is counterclockwise, (b - a) x (d - c) > 0 in `Fraction`s.
    The library derives its bits from the rotations instead."""
    pts = list(points)
    edges = list(itertools.combinations(range(len(pts)), 2))
    arr = fraction_segment_arrangement(pts)
    passes: List[List[int]] = [[] for _ in range(arr.crossings)]
    for eid, path in enumerate(arr.edge_paths):
        for k in path:
            passes[k].append(eid)  # the first edge first
    bits = []
    for ea, eb in passes:
        (a, b), (c, d) = edges[ea], edges[eb]
        bits.append("+" if (pts[b] - pts[a]).cross(pts[d] - pts[c]) > 0 else "-")
    return tuple(bits)


def fraction_unbounded_reference(points) -> Tuple[int, int]:
    """Directed hull edge whose left side is the unbounded region, by
    `Fraction` orientation tests: the slow path of the reference dart
    `planarize_points` reads off its arrangement.

    Starting from the lexicographically largest point p, the hull
    neighbor q with every other point strictly to the right of p->q is
    unique; hull edges are never crossed, so the face left of that first
    dart is the unbounded face.
    """
    pts = list(points)
    n = len(pts)
    p = max(range(n), key=lambda i: (pts[i].x, pts[i].y))
    for q in range(n):
        if q != p and all(orient(pts[p], pts[q], pts[w]) < 0
                          for w in range(n) if w not in (p, q)):
            return (p, q)
    raise AssertionError("no hull edge found")


# ---------------------------------------------------------------------------
# weak isomorphism by candidate maps: the slow path of `rotation_key`
# ---------------------------------------------------------------------------


def _canon(cycle: Sequence[int]) -> Tuple[int, ...]:
    k = list(cycle).index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


def _relabelled(system, perm: Sequence[int]):
    return tuple(_canon([perm[w] for w in system[u]])
                 for u in sorted(range(len(system)), key=lambda u: perm[u]))


def candidate_map_weak_iso(r1, r2) -> bool:
    """True when some relabelling maps r1 onto r2 or onto its reverse.

    Both systems must have every row from its least entry, as
    `Drawing.vertex_rotations` does.
    Candidate maps align the rotation at vertex 0 of r1 with every
    rotation of the target at every shift, which is exhaustive for
    complete graphs.
    """
    if len(r1) != len(r2):
        return False
    n = len(r1)
    reverse = tuple(_canon(tuple(reversed(cycle))) for cycle in r2)
    cycle0 = r1[0]
    for target in (r2, reverse):
        for image in range(n):
            other = target[image]
            for shift in range(n - 1):
                perm = [-1] * n
                perm[0] = image
                ok = True
                for k, w in enumerate(cycle0):
                    z = other[(k + shift) % (n - 1)]
                    if perm[w] != -1 and perm[w] != z:
                        ok = False
                        break
                    perm[w] = z
                if ok and len(set(perm)) == n and _relabelled(r1, perm) == target:
                    return True
    return False


def reference_rotation_key(system) -> Tuple[Tuple[int, ...], ...]:
    """`rotation_key` by relabelling and comparing every one of the
    2*n*(n-1) anchors, with no filter on the first entries of row 1."""
    n = len(system)
    if n < 2:
        return tuple(tuple(cycle) for cycle in system)
    first = tuple(range(1, n))
    best = None
    for cycles in ([list(c) for c in system], [list(reversed(c)) for c in system]):
        # rows[u][a]: rotation at u read from a
        rows = [{w: tuple(cyc[i:] + cyc[:i]) for i, w in enumerate(cyc)} for cyc in cycles]
        for a in range(n):
            cycle = cycles[a]
            for i in range(n - 1):
                order = cycle[i:] + cycle[:i]          # new labels 1..n-1
                perm = [0] * n
                for label, w in enumerate(order, 1):
                    perm[w] = label
                candidate = tuple([first] + [tuple(perm[x] for x in rows[w][a])
                                             for w in order])
                if best is None or candidate < best:
                    best = candidate
    return best


# ---------------------------------------------------------------------------
# shell and bishell searches over cloned views: the slow path of `shelling`
# ---------------------------------------------------------------------------


def shelling_sequences(drawing: Drawing, face: int, length: int,
                       banned: int = 0) -> Iterator[Tuple[int, ...]]:
    """Every sequence of `length` vertices outside the bitmask `banned`
    peeling away from `face`: each x_i is incident with the class of
    `face` once x_0..x_{i-1} are deleted.  Depth-first, children in
    ascending vertex order."""
    views: Dict[int, DeletionView] = {}

    def rec(deleted: int, seq: List[int]) -> Iterator[Tuple[int, ...]]:
        if len(seq) == length:
            yield tuple(seq)
            return
        view = views.get(deleted)
        if view is None:
            view = views[deleted] = DeletionView(drawing, deleted)
        incident = view.incident_mask(face) & ~banned
        for v in range(drawing.n):
            if incident >> v & 1:
                seq.append(v)
                yield from rec(deleted | 1 << v, seq)
                seq.pop()

    yield from rec(0, [])


def longest_peel(drawing: Drawing, face: int, banned: int) -> int:
    """Length of the longest sequence `shelling_sequences` enumerates."""
    length = 0
    while next(shelling_sequences(drawing, face, length + 1, banned), None) is not None:
        length += 1
    return length


def loop_incident(drawing: Drawing, classes: List[int], face: int, u: int,
                  deleted: FrozenSet[int]) -> bool:
    """u has a surviving dart whose left face is in the class of `face`."""
    root = classes[face]
    for w in range(drawing.n):
        if w != u and w not in deleted and classes[drawing.face_left_of(u, w)] == root:
            return True
    return False


def _loop_vertices(drawing: Drawing, deleted: int, face: int) -> List[int]:
    classes = view_classes(drawing, DeletionView(drawing, deleted))
    gone = frozenset(u for u in range(drawing.n) if deleted >> u & 1)
    return [u for u in range(drawing.n) if u not in gone
            and loop_incident(drawing, classes, face, u, gone)]


def child_view_bishell(drawing: Drawing, s: int,
                       face: Optional[int] = None) -> Optional[BishellWitness]:
    """Order-s bishell search building a view from scratch for every
    search node."""
    faces = (face,) if face is not None else range(drawing.face_count)
    for f in faces:
        a_seq: List[int] = []

        def extend_b(deleted, b_seq):
            if len(b_seq) == s + 1:
                return tuple(b_seq)
            forbidden = set(a_seq[:s - len(b_seq) + 1])
            for v in _loop_vertices(drawing, deleted, f):
                if v in forbidden:
                    continue
                b_seq.append(v)
                result = extend_b(deleted | 1 << v, b_seq)
                if result is not None:
                    return result
                b_seq.pop()
            return None

        def extend_a(deleted):
            if len(a_seq) == s + 1:
                b = extend_b(0, [])
                return None if b is None else BishellWitness(f, tuple(a_seq), b)
            for v in _loop_vertices(drawing, deleted, f):
                a_seq.append(v)
                result = extend_a(deleted | 1 << v)
                if result is not None:
                    return result
                a_seq.pop()
            return None

        found = extend_a(0)
        if found is not None:
            return found
    return None


def replay_shell_search(drawing: Drawing, s: int,
                        face: Optional[int] = None) -> Optional[ShellWitness]:
    """Outside-in s-shell search that replays, for every candidate, which
    pairs (r, t) became decidable at the current step."""
    fill_order: List[int] = []
    lo, hi = 0, s - 1
    while lo <= hi:
        fill_order.append(lo)
        if hi != lo:
            fill_order.append(hi)
        lo += 1
        hi -= 1
    memo: Dict[FrozenSet[int], Sequence[int]] = {}

    def decided(seq, r, t):
        return (all(seq[i] is not None for i in range(r))
                and all(seq[i] is not None for i in range(t - 1, len(seq))))

    def was_decided_before(seq, step, r, t):
        pos = fill_order[step]
        saved = seq[pos]
        seq[pos] = None
        before = decided(seq, r, t)
        seq[pos] = saved
        return before

    def holds(f, seq, r, t):
        deleted = frozenset(seq[i] for i in range(r - 1)) | \
            frozenset(seq[i] for i in range(t, s))
        classes = memo.get(deleted)
        if classes is None:
            classes = memo[deleted] = view_classes(
                drawing, DeletionView(drawing, vertex_mask(deleted)))
        return (loop_incident(drawing, classes, f, seq[r - 1], deleted)
                and loop_incident(drawing, classes, f, seq[t - 1], deleted))

    def dfs(f, seq, step: int, used: Set[int]):
        if step == len(fill_order):
            return tuple(seq)
        pos = fill_order[step]
        for v in range(drawing.n):
            if v in used:
                continue
            seq[pos] = v
            used.add(v)
            ok = all(not decided(seq, r, t) or was_decided_before(seq, step, r, t)
                     or holds(f, seq, r, t)
                     for r, t in itertools.combinations(range(1, s + 1), 2))
            if ok:
                result = dfs(f, seq, step + 1, used)
                if result is not None:
                    return result
            used.remove(v)
            seq[pos] = None
        return None

    faces = (face,) if face is not None else range(drawing.face_count)
    for f in faces:
        found = dfs(f, [None] * s, 0, set())
        if found is not None:
            return ShellWitness(face=f, seq=found)
    return None


def peel_closure_holds(drawing: Drawing, s: int, face: int, memo: Dict) -> bool:
    """The peel-closure condition PC(s) at `face` as its own search: some
    peel sequence a_0..a_s leaves, at every i, a greedy peel of
    s - i + 1 vertices with A_i = {a_0..a_i} banned throughout.  Failed
    sets are remembered, since passing depends only on the set A_i."""
    failed: Set[int] = set()

    def holds(prefix: int, i: int) -> bool:
        if prefix in failed:
            return False
        length = s - i + 1
        if len(_greedy_peel(drawing, face, (prefix,) * length, memo)) == length:
            if i == s:
                return True
            for v in _bits(_view(drawing, prefix, memo).incident_mask(face)):
                if holds(prefix | 1 << v, i + 1):
                    return True
        failed.add(prefix)
        return False

    return any(holds(1 << v, 0) for v in _bits(_view(drawing, 0, memo).incident_mask(face)))


def two_pass_bishell(drawing: Drawing, s: int,
                     face: Optional[int] = None) -> Optional[BishellWitness]:
    """Order-s bishell search that first refutes faces by
    `peel_closure_holds` and then walks every a-sequence of a face
    unpruned, completing B greedily."""
    memo: Dict = {}
    faces = (face,) if face is not None else range(drawing.face_count)
    for f in faces:
        if not peel_closure_holds(drawing, s, f, memo):
            continue
        a_seq: List[int] = []
        prefixes: List[int] = []

        def extend_a(deleted: int) -> Optional[BishellWitness]:
            if len(a_seq) == s + 1:
                b = _greedy_peel(drawing, f, prefixes[::-1], memo)
                return BishellWitness(f, tuple(a_seq), tuple(b)) if len(b) == s + 1 else None
            for v in _bits(_view(drawing, deleted, memo).incident_mask(f)):
                a_seq.append(v)
                prefixes.append(deleted | 1 << v)
                result = extend_a(deleted | 1 << v)
                if result is not None:
                    return result
                a_seq.pop()
                prefixes.pop()
            return None

        found = extend_a(0)
        if found is not None:
            return found
    return None
