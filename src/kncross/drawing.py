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

`build_drawing` checks its input and nothing those checks imply: every
edge has a path, every crossing id is in range and met by two distinct
edge passes, every vertex rotation is a permutation of the other
vertices, every orientation bit is '+' or '-', V - E + F = 2, and the
drawing is good; no other code checks goodness.  Each refusal is a
`ValueError`, as is every refusal of input in the package; only a map
that is not good gets its own class, `NotGoodDrawing`, which lists the
violations.  The checks make succ a permutation, so every face walk
closes, and the map of K_n is connected, so its dual is too.

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
needs the map of D - X itself, `subdrawing` restricts the paths, bits
and rotations of D and takes its reference face from a view.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from .geom import Point


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
# geometry provenance carried by drawings that came from coordinates
# ---------------------------------------------------------------------------


class PointsGeometry(NamedTuple):
    points: Tuple[Point, ...]


class TwoPageGeometry(NamedTuple):
    order: Tuple[int, ...]                       # spine order, left to right
    pages: Tuple[Tuple[Tuple[int, int], str], ...]  # ((u,v), "T"|"B") sorted
    positions: Tuple  # x coordinate per vertex id (Fractions)


class CylindricalGeometry(NamedTuple):
    outer: Tuple[int, ...]      # vertex ids on the outer circle, ccw
    inner: Tuple[int, ...]      # vertex ids on the inner circle, ccw
    angles: Tuple               # angle in turns per vertex id (Fractions)
    lid_params: Tuple           # circle_point parameter per vertex id


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
        if not 0 <= face < self.face_count:
            raise ValueError(f"face {face} out of range")
        return self._replace(reference_face=face)

    def face_left_of(self, u: int, v: int) -> int:
        """The face left of the first dart u->v."""
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"bad face dart ({u},{v})")
        # the forward dart of uv's first segment, or the backward of its last
        faces = self.dart_faces[edge_ids(self.n)[u][v]]
        return faces[0] if u < v else faces[-1]

    def face_dart(self, face: int) -> Tuple[int, int]:
        """The least dart (u, v) whose left face is `face`, the pair that
        names the face in files; a face no vertex touches has none."""
        for u, v in itertools.permutations(range(self.n), 2):
            if self.face_left_of(u, v) == face:
                return (u, v)
        raise ValueError(f"face {face} touches no vertex; cannot serialize")


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
    edge_paths: Mapping[Tuple[int, int], Sequence[int]],
    crossing_orientations: Sequence[str],
    vertex_rotations: Sequence[Sequence[int]],
    reference: Tuple[int, int],
    geometry: Optional[Geometry] = None,
) -> Drawing:
    """Assemble and validate a Drawing from its map description.

    `edge_paths` maps every pair u<v to the crossing ids met on the way
    from u to v; `crossing_orientations[k]` is '+' when the rotation at
    crossing k reads (first edge forward, second edge forward, first
    edge backward, second edge backward) counterclockwise, where "first"
    is the lexicographically smaller edge.  `reference` is a directed
    pair (u, v): the reference face is to the left of the first dart of
    that edge leaving u.  Construction raises ValueError on any
    inconsistency rather than producing a broken map, and NotGoodDrawing
    on a coherent map whose drawing is not good.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    edges = edge_list(n)
    c = len(crossing_orientations)
    for bit in crossing_orientations:
        if bit not in ("+", "-"):
            raise ValueError(f"bad orientation bit {bit!r}")

    paths: List[Tuple[int, ...]] = []
    for (u, v) in edges:
        if (u, v) not in edge_paths:
            raise ValueError(f"missing path for edge ({u},{v})")
        paths.append(tuple(edge_paths[(u, v)]))
    if len(edge_paths) != len(edges):
        raise ValueError("unexpected extra edge paths")

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
    for eid, ((u, v), path) in enumerate(zip(edges, paths)):
        base = d = len(dart_edge)
        for k in path:
            if not 0 <= k < c or second[k] >= 0 or first[k] >= base:
                # out of range, a third pass, or a second pass of this edge
                if len(set(path)) != len(path):
                    raise ValueError(f"edge {edges[eid]} visits a crossing twice")
                if not 0 <= k < c:
                    raise ValueError(f"crossing id {k} out of range")
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
    if crowded or -1 in second:
        for k in range(c):
            passes = crowded.get(k, 2) if second[k] >= 0 else int(first[k] >= 0)
            if passes != 2:
                raise ValueError(
                    f"crossing {k} met by {passes} edge passes, expected 2")

    if len(vertex_rotations) != n:
        raise ValueError("need one rotation per vertex")
    rotations: List[Tuple[int, ...]] = []
    for u, rot in enumerate(vertex_rotations):
        if sorted(rot) != [w for w in range(n) if w != u]:
            raise ValueError(
                f"rotation at {u} is not a permutation of the other vertices")
        k = rot.index(0 if u else 1)  # from the least neighbour
        rotations.append((*rot[k:], *rot[:k]))

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
    for row, rot in zip(out_dart, rotations):
        prev = row[rot[-1]]
        for w in rot:
            d = row[w]
            succ[prev] = d ^ 1
            prev = d
    for e, f, bit in zip(first, second, crossing_orientations):
        # Crossing k ends segment p of an edge and starts segment p+1, so
        # the darts leaving it are e + 2 (forward along p+1) and e + 1
        # (backward along p), e being the forward dart of segment p and
        # e + 3 and e their twins.  Counterclockwise they read (e + 2,
        # f + 2, e + 1, f + 1) on '+' and (e + 2, f + 1, e + 1, f + 2) on
        # '-', and succ takes each to the twin of the next.  e is the first
        # pass, so on the first edge: the paths are read in edge order.
        if bit == "+":
            succ[e + 2] = f + 3
            succ[f + 2] = e
            succ[e + 1] = f
            succ[f + 1] = e + 3
        else:
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

    ru, rv = reference
    if ru == rv or not (0 <= ru < n and 0 <= rv < n):
        raise ValueError(f"bad reference dart ({ru},{rv})")
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

    drawing = Drawing(
        n=n,
        edges=edges,
        edge_paths=tuple(paths),
        crossed_edges=tuple(dart_edge[d] for pair in zip(first, second) for d in pair),
        orientation_bits=tuple(crossing_orientations),
        vertex_rotations=tuple(rotations),
        dart_count=total,
        face_count=face_count,
        reference_face=reference_face,
        dart_faces=tuple(tuple(dart_face[base:end])
                         for base, end in zip(dart_base, dart_base[1:] + [total])),
        face_parity=tuple(parity),
        geometry=geometry,
    )
    violations = _goodness_violations(
        edges, zip(drawing.crossed_edges[::2], drawing.crossed_edges[1::2]))
    if violations:
        raise NotGoodDrawing(violations)
    return drawing


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
        if deleted >> n:  # also true of every negative mask
            raise ValueError(
                f"deleted mask {deleted:#x} has a vertex outside 0..{n - 1}")
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
    crossing's first and second edge and every path's direction, so each
    crossing of two surviving edges keeps its orientation bit; rotations
    are restricted.  The reference face is the class of the old one once
    the other vertices are deleted, named by the least surviving dart
    whose left face lies in it, and refused when no surviving dart has it
    on its left.  `build_drawing` checks the result, which has no geometry.
    """
    n = drawing.n
    if alive >> n:  # also true of every negative mask
        raise ValueError(f"alive mask {alive:#x} has a vertex outside 0..{n - 1}")
    keep = [v for v in range(n) if alive >> v & 1]
    if len(keep) < 3:
        raise ValueError(f"need at least 3 alive vertices, got {len(keep)}")
    new = {v: i for i, v in enumerate(keep)}
    live = [alive >> u & alive >> v & 1 for u, v in drawing.edges]
    crossed = drawing.crossed_edges
    kept = [k for k, (e, f) in enumerate(zip(crossed[::2], crossed[1::2]))
            if live[e] and live[f]]
    renum = {k: i for i, k in enumerate(kept)}
    paths = {(new[u], new[v]): [renum[k] for k in path if k in renum]
             for (u, v), path, on in zip(drawing.edges, drawing.edge_paths, live) if on}
    rotations = [[new[w] for w in drawing.vertex_rotations[u] if alive >> w & 1]
                 for u in keep]
    bits = [drawing.orientation_bits[k] for k in kept]
    view = DeletionView(drawing, (1 << n) - 1 ^ alive)
    target = view.class_of(drawing.reference_face)
    for u, w in itertools.permutations(keep, 2):
        if view.class_of(drawing.face_left_of(u, w)) == target:
            return build_drawing(len(keep), paths, bits, rotations, (new[u], new[w]))
    raise ValueError(f"reference face {drawing.reference_face} touches no alive "
                     f"vertex once the others are deleted")


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

