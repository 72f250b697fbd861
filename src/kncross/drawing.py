"""Planarized combinatorial maps of good drawings of complete graphs.

A drawing of K_n is stored as the planar map obtained by turning every
crossing into a degree-4 node.  Nodes are integers: real vertices are
0..n-1 and crossing k is n+k.  Every planarized segment contributes a
pair of twin darts; dart 2i runs along segment i of its edge in the
stored path direction (from the smaller endpoint to the larger), dart
2i+1 is its twin.  `build_drawing` keeps one out-dart table, the first
dart leaving u along uw for every u and w, and reads the vertex
rotations and the crossing orientation bits through it into the face
walk successor

    succ(d) = twin(rot_next(d)),

rot_next(d) being the next dart counterclockwise around the origin
node of d.  With counterclockwise rotations the face on the LEFT of a
dart d leaving u is the corner of u between d and rot_next(d), which is
also on the left of twin(rot_next(d)); so the faces are the orbits of
succ, each the darts with one face on their left.  Every left/right
statement below follows this convention.  The map lives on the sphere:
the unbounded face of a geometric input is an ordinary face, merely
remembered as the reference.

`build_drawing` checks its input and nothing those checks imply, in
this order: n is an int of at least 3, the crossing count is an int
and not negative, the paths are not a mapping and there is one path
per edge; every vertex rotation is a permutation of the other
vertices, ints all; each path, in edge
order, visits no crossing twice, then has its ids in range, and an id
that is not an int is refused where it is met; the reference is a dart
of two ints;
every crossing is met by two distinct edge passes; the drawing is good
(no other code checks goodness); V - E + F = 2.  Each refusal is a
`ValueError`, as is every refusal of input in the package.  A rotation,
path or reference refusal is a `MapError` whose `part`, ("rot", u),
("e", u, v) or ("ref",), lets `parse` name its line, and comes first; a
map that is not good gets `NotGoodDrawing`, which lists the violations.
The checks make succ a permutation, so every face walk closes, and the
map of K_n is connected, so its dual is too.

An n, a face, a dart, a permutation and a vertex bitmask each have one
judge, here, which every module that checks one calls: `_check_n`,
`_check_face`, `_is_dart` (a reference dart, or a dart that names a
face), `_is_permutation` (a vertex rotation, a spine order) and
`_check_mask` (the bitmask of a `DeletionView`, `subdrawing` or
`kedges.k_value`, refused by its name: `alive mask 7.0 is not an int`,
`deleted mask 0x40 has a vertex outside 0..5`).

A map is its paths, rotations and reference: the rotation system of a
good drawing fixes its crossings (Kyncl 2011), so `build_drawing`
derives each crossing's orientation bit from the rotation at the least
of its four ends (the K_4 rule in its docstring) and no caller passes
one.  A map file's `x` lines are checked against the derived bits.
The paths come as a Drawing stores them, one per edge in `edge_list(n)`
order, so a drawing's own fields build it again:
`build_drawing(d.n, d.edge_paths, d.crossings, d.vertex_rotations,
d.face_dart(d.reference_face), d.geometry) == d`.

succ and the per-dart tables live only during construction, and of
the face walks only each face's first dart, to walk it again for the
parity masks.  A Drawing is a NamedTuple, like every record of the
package, so it is immutable and compares and hashes by value.  It keeps
what the rest of the package reads: the edges and their crossing paths,
the vertex rotations, each started at its least neighbour as files
write them (a rotation is a cycle, so the start changes no face), the
dart and face counts, the parity masks below, the reference face and
two flat tables.  `dart_faces[e]` holds the left face of each dart of
edge e in dart order, forward then backward per segment, so a segment's
two sides are a consecutive pair; `crossed_edges` holds the first and
the second edge of every crossing in turn, 2 * `crossings` ids.  The
edges are `edge_list(n)`, shared by every drawing of K_n; edge uv has
id `edge_ids(n)[u][v]`.  Other modules name a face by a dart, through
`face_left_of(u, v)`, read off `dart_faces`, and its inverse
`face_dart(face)`, the least dart with `face` on its left.

Crossing a segment of edge e from one face into the next flips bit e of
`face_parity`, a mask per face fixed by one walk over the dual graph.
The masks depend on the walk (a loop around a vertex flips the bits of
all its edges), but the parity summed over the edges of a cycle of K_n
does not; the side-of oracle `kedges.right_mask` reads it off.

Deletion of real vertices never rebuilds the map.  A DeletionView is
one table per deleted-vertex bitmask: a union-find over the base faces
whose roots are the least faces of the classes left once the deleted
vertices' edges are gone, and per root a corner mask, the vertices with
a dart whose left face lies in the class.  Removing an edge merges the
two faces on the sides of each of its segments, and a crossing that
loses one of its edges is implicitly smoothed (subdivision does not
affect faces).  A dart to a deleted vertex lies in a class some dart to
a survivor also lies in, so the corner mask masked by the survivors is
the incidence; a view grown from a parent runs only its new vertices'
unions, and reads halve the paths of its table in place.  When a caller
needs the map of D - X itself, `subdrawing` restricts the paths and
rotations of D and takes its reference face from a view.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from .geom import Point


class MapError(ValueError):
    """A fault at one `part` of a map: ("e", u, v), the path of edge uv,
    ("rot", u), the rotation at u, or ("ref",), the reference dart."""

    def __init__(self, part: Tuple[object, ...], message: str):
        super().__init__(message)
        self.part = part


class NotGoodDrawing(ValueError):
    """A coherent map whose drawing breaks a goodness condition.

    `violations` holds every violation; the message names the first.
    """

    def __init__(self, violations: Tuple[GoodnessViolation, ...]):
        first = violations[0]
        edges = " and ".join(f"{u}-{v}" for u, v in first.edges)
        more = len(violations) - 1
        tail = f" (+{more} more)" if more else ""
        super().__init__(
            f"not a good drawing: {first.kind} of edges {edges}{tail}")
        self.violations = violations


# ---------------------------------------------------------------------------
# geometry provenance: the coordinates of a points or two-page drawing,
# which the pictures and the points and twopage formats read.  Every
# other drawing, a tin can's included, is its map alone and has None.
# ---------------------------------------------------------------------------


class PointsGeometry(NamedTuple):
    points: Tuple[Point, ...]


class TwoPageGeometry(NamedTuple):
    order: Tuple[int, ...]                       # spine order, left to right
    pages: Tuple[str, ...]                       # "T" | "B" per edge, in edge order
    positions: Tuple  # x coordinate per vertex id (Fractions)


Geometry = object  # one of the provenance classes above, or None


# ---------------------------------------------------------------------------
# the drawing itself
# ---------------------------------------------------------------------------


class GoodnessViolation(NamedTuple):
    kind: str                      # "adjacent_cross" | "double_cross"
    edges: Tuple[Tuple[int, int], ...]


class Drawing(NamedTuple):
    n: int
    edges: Tuple[Tuple[int, int], ...]            # lexicographic, id = index
    edge_paths: Tuple[Tuple[int, ...], ...]       # crossing ids, smaller->larger endpoint
    crossed_edges: Tuple[int, ...]                # first, second edge id of crossing 0, 1, ...
    orientation_bits: Tuple[str, ...]             # '+' or '-' per crossing
    vertex_rotations: Tuple[Tuple[int, ...], ...]  # ccw neighbor cycle per vertex, least first
    dart_count: int
    face_count: int
    reference_face: int
    dart_faces: Tuple[Tuple[int, ...], ...]       # per edge: left face of each dart, in dart order
    face_parity: Tuple[int, ...]                  # per face: edge bitmask of a dual walk from face 0
    geometry: Optional[Geometry] = None

    # -- basic accessors ----------------------------------------------------

    @property
    def crossings(self) -> int:
        return len(self.orientation_bits)

    def with_reference(self, face: int) -> "Drawing":
        _check_face(self, face)
        return self._replace(reference_face=face)

    def face_left_of(self, u: int, v: int) -> int:
        """The face left of the first dart u->v."""
        if not _is_dart(self.n, u, v):
            raise ValueError(f"bad face dart ({u},{v})")
        # the forward dart of uv's first segment, or the backward of its last
        faces = self.dart_faces[edge_ids(self.n)[u][v]]
        return faces[0] if u < v else faces[-1]

    def face_dart(self, face: int) -> Tuple[int, int]:
        """The least dart (u, v) whose left face is `face`, the pair that
        names the face in files; a face no vertex touches has none."""
        _check_face(self, face)
        for u, v in itertools.permutations(range(self.n), 2):
            if self.face_left_of(u, v) == face:
                return (u, v)
        raise ValueError(f"face {face} touches no vertex; cannot serialize")


def _check_n(n: int, least: int = 3) -> None:
    """Refuse `n` unless it is an int of at least `least`."""
    if not isinstance(n, int):
        raise ValueError(f"n={n!r} is not an int")
    if n < least:
        raise ValueError(f"need n >= {least}")


def _check_face(drawing: Drawing, face: int) -> None:
    """Refuse `face` unless it is an int that names a face of `drawing`."""
    if not (isinstance(face, int) and 0 <= face < drawing.face_count):
        raise ValueError(f"face {face} out of range")


def _check_mask(n: int, mask: int, what: str) -> None:
    """Refuse the vertex bitmask `mask`, named `what`, unless it is an int
    whose vertices are all in 0..n-1."""
    if not isinstance(mask, int):
        raise ValueError(f"{what} mask {mask!r} is not an int")
    if mask >> n:  # also true of every negative mask
        raise ValueError(f"{what} mask {mask:#x} has a vertex outside 0..{n - 1}")


def _is_dart(n: int, u: int, v: int) -> bool:
    """Whether u and v are two distinct ints in 0..n-1."""
    return isinstance(u, int) and isinstance(v, int) and u != v and 0 <= u < n and 0 <= v < n


def _is_permutation(seq: Sequence[int], values: Iterable[int]) -> bool:
    """Whether `seq` holds the ints `values`, each once."""
    return all(isinstance(w, int) for w in seq) and sorted(seq) == sorted(values)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


@functools.cache
def edge_list(n: int) -> Tuple[Tuple[int, int], ...]:
    """The edges (u, v), u < v, of K_n in lexicographic order, the id of
    an edge being its index; `Drawing.edges` of every drawing of K_n."""
    return tuple(itertools.combinations(range(n), 2))


@functools.cache
def edge_ids(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Lexicographic edge ids of K_n, the indices into `edge_list(n)`,
    as an n x n table with -1 on the diagonal."""
    table = [[-1] * n for _ in range(n)]
    for e, (u, v) in enumerate(edge_list(n)):
        table[u][v] = table[v][u] = e
    return tuple(map(tuple, table))


def build_drawing(
    n: int,
    edge_paths: Sequence[Sequence[int]],
    crossings: int,
    vertex_rotations: Sequence[Sequence[int]],
    reference: Tuple[int, int],
    geometry: Optional[Geometry] = None,
) -> Drawing:
    """Assemble and validate a Drawing from its paths and rotations.

    `edge_paths` holds, per edge uv of `edge_list(n)` in that order, the
    crossing ids, 0 up to `crossings` - 1, met on the way from u to v;
    a mapping, or any other number of paths, is refused.  `reference` is
    a directed pair (u, v): the reference face is to the left of the
    first dart of that edge leaving u.  Construction raises ValueError on any
    inconsistency rather than producing a broken map, a MapError when a
    rotation, a path or the reference is at fault, and NotGoodDrawing on
    a map whose drawing is not good.

    The orientation bit of crossing k is '+' when the rotation at the
    crossing reads (first edge forward, second edge forward, first edge
    backward, second edge backward) counterclockwise, where "first" is
    the lexicographically smaller edge.  It is derived, by the K_4 rule:
    for a crossing of edges ab < cd, a < b and c < d, the drawing being
    good, a is the least of the four ends, and the bit is '+' exactly
    when the rotation at a reads b, d, c counterclockwise.

    Why it holds (Kyncl 2011): the four ends span a good drawing of K_4
    whose rotations and whose crossing of ab and cd are those of the
    whole drawing restricted to them; a good drawing of K_4 has no other
    crossing.  Its planarization is the wheel with the crossing as hub
    and rim a, c, b, d, which is 3-connected, so it embeds in the sphere
    in one way up to a mirror image (Whitney).  In one image the crossing
    reads b, d, a, c counterclockwise, the bit is '+', and a reads its
    dart towards the crossing, on ab, then d, then c; the mirror image
    reverses both.
    """
    _check_n(n)
    if not isinstance(crossings, int):
        raise ValueError(f"crossing count {crossings!r} is not an int")
    if crossings < 0:
        raise ValueError(f"negative crossing count {crossings}")
    if isinstance(edge_paths, Mapping):
        raise ValueError("edge_paths is a mapping; need one path per edge in edge_list(n) order")
    edges = edge_list(n)
    c = crossings
    if len(edge_paths) != len(edges):
        raise ValueError(f"need {len(edges)} edge paths, got {len(edge_paths)}")
    paths = tuple(map(tuple, edge_paths))

    if len(vertex_rotations) != n:
        raise ValueError("need one rotation per vertex")
    rotations: List[Tuple[int, ...]] = []
    for u, rot in enumerate(vertex_rotations):
        if not _is_permutation(rot, (w for w in range(n) if w != u)):
            raise MapError(("rot", u), f"rotation at {u} is not a "
                                       f"permutation of the other vertices")
        k = rot.index(0 if u else 1)  # from the least neighbour
        rotations.append((*rot[k:], *rot[:k]))

    # One pass over the paths lays out the darts, per edge (forward,
    # backward) per segment, and records the edge of every dart and the
    # two passes of every crossing, each as the forward dart of the segment
    # that ends there.  out_dart[u][w] is the first dart leaving u along
    # edge uw: the forward dart of the first segment when u < w, the
    # backward dart of the last one otherwise.  The path checks report
    # what checking each path whole, in edge order, would: a revisit
    # before an id out of range, and a crossing met by other than two
    # passes (the least such crossing) only once every path is checked.
    out_dart = [[-1] * n for _ in range(n)]
    dart_base: List[int] = []
    dart_edge: List[int] = []
    first = [-1] * c
    second = [-1] * c
    crowded: Dict[int, int] = {}  # passes of a crossing met more than twice
    try:  # an id that is not an int fails its comparison or its indexing
        for eid, ((u, v), path) in enumerate(zip(edges, paths)):
            base = d = len(dart_edge)
            for k in path:
                if not 0 <= k < c or second[k] >= 0 or first[k] >= base:
                    # out of range, a third pass, or a second pass of this edge
                    if len(set(path)) != len(path):
                        raise MapError(("e", u, v), f"edge {edges[eid]} visits a crossing twice")
                    if not 0 <= k < c:
                        raise MapError(("e", u, v), f"crossing id {k} out of range")
                    crowded[k] = crowded.get(k, 2) + 1
                elif first[k] < 0:
                    first[k] = d
                else:
                    second[k] = d
                d += 2
            dart_base.append(base)
            dart_edge += [eid] * (d + 2 - base)
            out_dart[u][v] = base
            out_dart[v][u] = d + 1
    except TypeError:
        raise MapError(("e", u, v), f"crossing id {k!r} is not an int") from None
    ru, rv = reference  # before the counts, as the rotations: `parse` names its line
    if not _is_dart(n, ru, rv):
        raise MapError(("ref",), f"bad reference dart ({ru},{rv})")
    if crowded or -1 in second:
        for k in range(c):
            passes = crowded.get(k, 2) if second[k] >= 0 else int(first[k] >= 0)
            if passes != 2:
                raise ValueError(
                    f"crossing {k} met by {passes} edge passes, expected 2")

    # Goodness, before any bit: the K_4 rule reads two vertex-disjoint
    # edges per crossing.  A pair of edges crossed twice shows in the set
    # of pairs, an adjacent pair in the loop below; the full listing is
    # made only to refuse.
    crossed = [dart_edge[d] for pair in zip(first, second) for d in pair]
    pairs = list(zip(crossed[::2], crossed[1::2]))
    if len(set(pairs)) != c:
        raise NotGoodDrawing(_goodness_violations(edges, pairs))

    # The face walk successor succ[d] = rot_next[d] ^ 1, rot_next[d]
    # being the dart after d counterclockwise around its origin, straight
    # from the vertex rotations and the crossings; d and succ[d] have one
    # face on their left.  No dart is assigned twice or left out: the
    # vertex rotations are permutations and every crossing is met by two
    # distinct edge passes, so each dart leaves exactly one node.  succ is
    # then a permutation, so every face walk closes; and the map of K_n is
    # connected, so its dual is too and the parity walk below reaches
    # every face.
    total = len(dart_edge)
    succ = [0] * total
    place = [[0] * n for _ in range(n)]  # place[u][w]: w's index in u's rotation
    for row, at, rot in zip(out_dart, place, rotations):
        prev = row[rot[-1]]
        for i, w in enumerate(rot):
            d = row[w]
            succ[prev] = d ^ 1
            prev = d
            at[w] = i
    bits: List[str] = []
    for e, f, (g, h) in zip(first, second, pairs):
        (a, b), (x, y) = edges[g], edges[h]
        if a == x or b == x or b == y:  # a <= x < y: the edges share an end
            raise NotGoodDrawing(_goodness_violations(edges, pairs))
        # Crossing k ends segment p of an edge and starts segment p+1, so
        # the darts leaving it are e + 2 (forward along p+1) and e + 1
        # (backward along p), e being the forward dart of segment p and
        # e + 3 and e their twins.  Counterclockwise they read (e + 2,
        # f + 2, e + 1, f + 1) on '+' and (e + 2, f + 1, e + 1, f + 2) on
        # '-', and succ takes each to the twin of the next.  e is the first
        # pass, so on the first edge ab: the paths are read in edge order.
        at = place[a]
        if (at[b] < at[y]) + (at[y] < at[x]) + (at[x] < at[b]) == 2:  # a reads b, y, x
            bits.append("+")
            succ[e + 2] = f + 3
            succ[f + 2] = e
            succ[e + 1] = f
            succ[f + 1] = e + 3
        else:
            bits.append("-")
            succ[e + 2] = f
            succ[f + 1] = e
            succ[e + 1] = f + 3
            succ[f + 2] = e + 3

    # faces: the orbits of succ, each the darts with one face on their
    # left.  A face is walked from d ^ 1 for ascending d, so the faces are
    # numbered by the least dart with the face on its right; only each
    # face's first dart is kept.
    dart_face = [-1] * total
    starts: List[int] = []
    for d in range(total):
        d ^= 1
        if dart_face[d] >= 0:
            continue
        fid = len(starts)
        starts.append(d)
        while dart_face[d] < 0:
            dart_face[d] = fid
            d = succ[d]
    face_count = len(starts)

    nodes = n + c
    nedges = len(edges) + 2 * c
    if nodes - nedges + face_count != 2:
        raise ValueError(f"V-E+F = {nodes}-{nedges}+{face_count} != 2")

    reference_face = dart_face[out_dart[ru][rv]]

    # dual walk from face 0, re-walking each face from its first dart:
    # stepping across a segment of edge e flips bit e, and the twin of a
    # dart with face f on its left has the next face on its left.
    parity: List[Optional[int]] = [None] * face_count
    parity[0] = 0
    stack = [0]
    while stack:
        f = stack.pop()
        d = d0 = starts[f]
        while True:
            g = dart_face[d ^ 1]
            if parity[g] is None:
                parity[g] = parity[f] ^ (1 << dart_edge[d])
                stack.append(g)
            d = succ[d]
            if d == d0:
                break

    return Drawing(
        n=n,
        edges=edges,
        edge_paths=paths,
        crossed_edges=tuple(crossed),
        orientation_bits=tuple(bits),
        vertex_rotations=tuple(rotations),
        dart_count=total,
        face_count=face_count,
        reference_face=reference_face,
        dart_faces=tuple(tuple(dart_face[base:end])
                         for base, end in zip(dart_base, dart_base[1:] + [total])),
        face_parity=tuple(parity),
        geometry=geometry,
    )


def _goodness_violations(edges: Sequence[Tuple[int, int]],
                         crossing_pairs: Iterable[Tuple[int, int]]) -> tuple:
    """The adjacent crossings in crossing order, then the pairs of edges
    crossed more than once, sorted; `crossing_pairs` holds the (first,
    second) edge ids of every crossing.  No edge crosses itself: a path that
    visits a crossing twice is refused before."""
    violations: List[GoodnessViolation] = []
    seen: Set[Tuple[int, int]] = set()
    doubled: Set[Tuple[int, int]] = set()
    for pair in crossing_pairs:
        a, b = edges[pair[0]], edges[pair[1]]
        if a[0] in b or a[1] in b:
            violations.append(GoodnessViolation("adjacent_cross", (a, b)))
        if pair in seen:
            doubled.add(pair)
        seen.add(pair)
    for e1, e2 in sorted(doubled):
        violations.append(GoodnessViolation(
            "double_cross", (edges[e1], edges[e2])))
    return tuple(violations)


# ---------------------------------------------------------------------------
# deletion views
# ---------------------------------------------------------------------------


class DeletionView:
    """The incidence table of a drawing with a set of real vertices deleted.

    `deleted` is the set as a vertex bitmask.  Deleting a vertex removes
    its edges to the surviving vertices, which merges the two faces on
    the sides of each of their segments.  A surviving vertex u is
    incident with a class when one of its darts to a surviving vertex
    has its left face in the class: that captures exactly the corners
    of u that remain after merging.  `incident_mask(face)` is the
    bitmask of the surviving vertices incident with the class of
    `face`, 0 when fewer than two vertices survive, and
    `class_of(face)` names that class by its least face.

    The table is a union-find over the base faces, `root`, that unites
    two classes under the smaller face, so the root of a class is its
    least face, and `corners`, which maps every root to the bitmask of
    the vertices with any dart, to a survivor or not, whose left face
    lies in its class.  A view without a parent fills `corners` from
    the ends of every edge in `dart_faces`, the left faces of its two
    first darts; a union ORs the absorbed root's mask into the
    surviving root's.  `incident_mask` is then `corners` at the class's
    root masked by the survivors, by this lemma.

    Lemma.  While two vertices survive, the left face of a surviving
    vertex u's dart to a deleted vertex w is in the class of the left
    face of u's next surviving dart clockwise.  Proof: with
    counterclockwise rotations the left face of a dart d leaving u is
    the corner of u between d and the next dart counterclockwise, so
    the face right of d is the left face of the next dart clockwise.
    Deleting w removes the edge uw, which merges the faces on both
    sides of its first segment, the left faces of d and of that next
    dart.  Going on clockwise past every dart to a deleted vertex
    reaches a dart to a survivor, since one survives besides u.  So a
    dart to a deleted vertex adds no class to u's survivors' darts, and
    masking `corners` by the survivors gives the incidence.

    Given `parent`, the view of a subset of `deleted`, the view copies
    its two lists and runs only the unions of the vertices it lacks, so
    a search grows each table from a smaller one; the classes and the
    masks do not depend on the parent.  Reads halve the paths they
    walk, so they rewrite `root` in place, but every face still points
    at a smaller face of its class and no root moves: reading a view,
    before or after it is grown from, changes no answer.  The base is
    never mutated and never rebuilt.
    """

    __slots__ = ("deleted", "root", "corners", "survivors")

    def __init__(self, base: Drawing, deleted: int,
                 parent: Optional[DeletionView] = None):
        n = base.n
        _check_mask(n, deleted, "deleted")
        if parent is None:
            gone = 0
            root = list(range(base.face_count))
            corners = [0] * base.face_count
            for (u, v), faces in zip(base.edges, base.dart_faces):
                corners[faces[0]] |= 1 << u
                corners[faces[-1]] |= 1 << v
        else:
            gone = parent.deleted
            if gone & ~deleted:
                raise ValueError("parent deletes a vertex this view keeps")
            root = parent.root[:]
            corners = parent.corners[:]

        # delete the new vertices in ascending order; each removes its
        # edges to the vertices not deleted yet, which merges the two sides
        # of each of their segments, the left faces of its two darts: a
        # pair of consecutive entries in `faces`, the edges' rows of
        # `dart_faces` strung together.  A find points each face it passes
        # at its grandparent, and a union hangs the larger root below the
        # smaller and takes over its corners.
        dart_faces, ids = base.dart_faces, edge_ids(n)
        new = deleted & ~gone
        while new:
            bit = new & -new
            new ^= bit
            gone |= bit
            row = ids[bit.bit_length() - 1]
            faces: List[int] = []
            for w in range(n):
                if not gone >> w & 1:
                    faces += dart_faces[row[w]]
            it = iter(faces)
            for a, b in zip(it, it):
                while root[a] != a:
                    root[a] = a = root[root[a]]
                while root[b] != b:
                    root[b] = b = root[root[b]]
                if a < b:
                    root[b] = a
                    corners[a] |= corners[b]
                elif b < a:
                    root[a] = b
                    corners[b] |= corners[a]
        survivors = (1 << n) - 1 ^ deleted
        self.deleted = deleted
        self.root = root
        self.corners = corners
        # 0 when fewer than two vertices survive: no surviving dart is left
        self.survivors = survivors if survivors & survivors - 1 else 0

    def class_of(self, face: int) -> int:
        """The least face of the class of `face`."""
        root = self.root
        while root[face] != face:
            root[face] = face = root[root[face]]
        return face

    def incident_mask(self, face: int) -> int:
        """Bitmask of surviving vertices incident with the class of `face`."""
        return self.corners[self.class_of(face)] & self.survivors


def subdrawing(drawing: Drawing, alive: int) -> Drawing:
    """The drawing on the vertices of the bitmask `alive`, from the map alone.

    The survivors are relabelled in ascending order, which keeps every
    crossing's first and second edge and every path's direction.  Paths
    and rotations are restricted; a restricted rotation keeps the order
    of its survivors, so each kept crossing keeps its orientation bit.
    `build_drawing` checks the result, which has no geometry.

    The reference face is the class of the old one once the other
    vertices are deleted, a face of the result.  A face of the result
    has a segment of a kept edge on its boundary, so some dart of a kept
    edge has a face of that class on its left: old segment i of the edge
    lies in new segment j, j counting the kept crossings before it, and
    the new dart on the same side has the reference on its left.
    """
    n = drawing.n
    _check_mask(n, alive, "alive")
    keep = [v for v in range(n) if alive >> v & 1]
    if len(keep) < 3:
        raise ValueError(f"need at least 3 alive vertices, got {len(keep)}")
    new = {v: i for i, v in enumerate(keep)}
    live = [alive >> u & alive >> v & 1 for u, v in drawing.edges]
    crossed = drawing.crossed_edges
    kept = [k for k, (e, f) in enumerate(zip(crossed[::2], crossed[1::2]))
            if live[e] and live[f]]
    renum = {k: i for i, k in enumerate(kept)}
    # the kept edges keep their order, as relabelling keeps vertex order
    paths = [[renum[k] for k in path if k in renum]
             for path, on in zip(drawing.edge_paths, live) if on]
    rotations = [[new[w] for w in drawing.vertex_rotations[u] if alive >> w & 1]
                 for u in keep]
    sub = build_drawing(len(keep), paths, len(kept), rotations, (0, 1))
    view = DeletionView(drawing, (1 << n) - 1 ^ alive)
    target = view.class_of(drawing.reference_face)
    for path, faces, row in zip(itertools.compress(drawing.edge_paths, live),
                                itertools.compress(drawing.dart_faces, live), sub.dart_faces):
        for d, face in enumerate(faces):
            if view.class_of(face) == target:  # dart d runs along segment d // 2
                j = sum(k in renum for k in path[:d // 2])
                return sub._replace(reference_face=row[2 * j + d % 2])
    raise AssertionError("no kept dart borders the reference class")


# ---------------------------------------------------------------------------
# rotation systems and weak isomorphism
# ---------------------------------------------------------------------------

RotationSystem = Tuple[Tuple[int, ...], ...]


def rotation_key(system: RotationSystem) -> RotationSystem:
    """Canonical form of a rotation system up to relabelling and reversal.

    `system` is a counterclockwise neighbour cycle per vertex, from any
    start: `Drawing.vertex_rotations`, or the vertex orders of a segment
    arrangement.  The key is the least of the 2*n*(n-1) anchored
    relabellings, each row from its least entry: vertex a becomes 0
    and its rotation, read from b, becomes 1..n-1, for every a, b and
    both orientations.  Every relabelling of the system or of its
    reverse that turns row 0 into (1, ..., n-1) is one of them, so two
    systems have equal keys exactly when they are weakly isomorphic.
    For good drawings of K_n the rotation system determines the drawing
    up to weak isomorphism (Kyncl 2011), so the key names the class.

    Row 1 of an anchor is the rotation at b read from a, so it is
    (0, label of c, ...) with c the neighbour after a at b.  The least
    relabelling minimises that label, which costs O(1) per anchor; only
    the anchors that reach the least label are relabelled and compared.
    """
    n = len(system)
    if n < 2:
        return tuple(tuple(cycle) for cycle in system)
    m = n - 1
    first = tuple(range(1, n))
    # labels[(o*n + a)*m + i]: the label of c for orientation o and the
    # anchor a, b = cycles[a][i]
    labels: List[int] = []
    tables = []
    for cycles in ([list(c) for c in system], [list(reversed(c)) for c in system]):
        # pos[u][w]: index of w in the rotation at u; twice[u]: that rotation twice
        pos = [[0] * n for _ in range(n)]
        for u, cycle in enumerate(cycles):
            row = pos[u]
            for j, w in enumerate(cycle):
                row[w] = j
        twice = [cycle + cycle for cycle in cycles]
        tables.append((pos, twice))
        for a in range(n):
            pa = pos[a]
            for i, b in enumerate(cycles[a]):
                labels.append((pa[twice[b][pos[b][a] + 1]] - i) % m + 1)
    least = min(labels)
    best: Optional[List[Tuple[int, ...]]] = None
    for index, label_c in enumerate(labels):
        if label_c != least:
            continue
        o, i = divmod(index, m)
        o, a = divmod(o, n)
        pos, twice = tables[o]
        order = twice[a][i:i + m]                 # new labels 1..n-1
        perm = [0] * n
        for label, w in enumerate(order, 1):
            perm[w] = label
        candidate = [first]
        smaller = best is None
        for w in order:
            p = pos[w][a]
            row = tuple([perm[x] for x in twice[w][p:p + m]])
            if not smaller:
                other = best[len(candidate)]
                if row > other:
                    break
                smaller = row < other
            candidate.append(row)
        else:
            if smaller:
                best = candidate
    return tuple(best)

