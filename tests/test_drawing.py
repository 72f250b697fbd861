import itertools
import json
import random
from math import comb
from types import SimpleNamespace

import pytest

from kncross import cli
from kncross.drawing import (
    DeletionView,
    Drawing,
    MapError,
    NotGoodDrawing,
    TwoPageGeometry,
    _goodness_violations,
    build_drawing,
    edge_ids,
    edge_list,
    rotation_key,
    subdrawing,
)
from kncross.generators import (
    SplitMix64,
    TwoPageSpec,
    gen_convex,
    gen_cylindrical,
    gen_random_points,
    gen_twopage,
    twopage_all_top,
)
from kncross.io import parse, serialize
from kncross.planarize import planarize_points
from kncross.geom import Point, circle_point

from conftest import (
    MAP_REFUSALS,
    assert_view_matches_replanarization,
    build_outcome,
    candidate_map_weak_iso,
    crossing_triangles,
    flip_triangle,
    goodness_violations,
    loop_k4_census,
    planar_k4,
    reference_build_drawing,
    reference_deletion_view,
    reference_rotation_key,
    regenerate_subdrawing,
    rotation_bits,
    rotation_crossings,
    shuffled_twopage_spec,
    vertex_mask,
    view_classes,
)


def test_planar_k4_build(k4_planar):
    assert k4_planar.face_count == 4
    assert k4_planar.crossings == 0
    assert goodness_violations(k4_planar) == ()


def test_crossed_k4_build(k4_crossed):
    assert k4_crossed.crossings == 1
    assert k4_crossed.face_count == 5


def test_convex_k5_euler():
    d = gen_convex(5)
    assert d.crossings == 5
    assert d.face_count == 12   # 2 - (5+5) + (10+10)


K4_ROTATIONS = [(1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 0, 1)]   # the planar K4's


def _k4_paths(changes=()):
    """The K_4 paths in edge order: none crossed but the edges in `changes`."""
    changes = dict(changes)
    return [changes.get(edge, []) for edge in edge_list(4)]


# build_drawing arguments (n, paths, crossings, rotations, reference) of
# maps that construction refuses
MALFORMED = {
    # two neighbors swapped in one rotation: the map no longer embeds in the sphere
    "euler": (4, _k4_paths(), 0, [(1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 1, 0)], (1, 0)),
    # crossing 0 met by only one edge
    "degree": (4, _k4_paths({(0, 2): [0]}), 1, K4_ROTATIONS, (1, 0)),
    "revisit": (4, _k4_paths({(0, 2): [0, 0]}), 1, K4_ROTATIONS, (1, 0)),
    # K3 with edges (0,1) and (1,2) crossing once; rotations at degree-2
    # vertices are forced
    "adjacent": (3, [[0], [], [0]], 1,
                 [(1, 2), (0, 2), (0, 1)], (0, 1)),
    # 0=(0,0), 1=(0,4), 2=(3,1), 3=(3,3); all edges straight except (0,1),
    # which heads right, crosses (2,3) twice (out and back), then crosses
    # (0,3) once on its way up to vertex 1
    "double": (4, _k4_paths({(0, 1): [0, 1, 2], (2, 3): [0, 1], (0, 3): [2]}),
               3, [(2, 1, 3), (2, 0, 3), (0, 1, 3), (1, 0, 2)], (2, 0)),
    "negative-crossings": (4, _k4_paths(), -1, K4_ROTATIONS, (1, 0)),
    "missing-path": (4, _k4_paths()[:5], 0, K4_ROTATIONS, (1, 0)),
    "crossing-id": (4, _k4_paths({(0, 2): [3]}), 1, K4_ROTATIONS, (1, 0)),
    "rotation": (4, _k4_paths(), 0, [(1, 3, 2), (2, 3, 0), (0, 3, 3), (2, 0, 1)], (1, 0)),
    "reference": (4, _k4_paths(), 0, K4_ROTATIONS, (1, 1)),
    # crossing 1 met by three passes, crossing 0 by one: the least is named
    "degree-least": (4, _k4_paths({(0, 1): [1], (0, 2): [1], (1, 3): [1], (2, 3): [0]}),
                     2, K4_ROTATIONS, (1, 0)),
    # crossing 0 met by three passes, crossing 1 by one
    "degree-crowded": (4, _k4_paths({(0, 1): [0], (0, 2): [0], (1, 3): [0], (2, 3): [1]}),
                       2, K4_ROTATIONS, (1, 0)),
    # a third pass of crossing 0, then an id out of range on a later edge
    "crowded-then-id": (4, _k4_paths({(0, 1): [0], (0, 2): [0], (0, 3): [0], (1, 2): [5]}),
                        1, K4_ROTATIONS, (1, 0)),
    # an id out of range before the revisit on the same edge
    "id-then-revisit": (4, _k4_paths({(0, 2): [3, 0, 0]}), 1, K4_ROTATIONS, (1, 0)),
    # a seventh path: K_4 has six edges
    "extra-path": (4, _k4_paths() + [[]], 0, K4_ROTATIONS, (1, 0)),
    "rotation-count": (4, _k4_paths(), 0, K4_ROTATIONS[:3], (1, 0)),
    "small-n": (2, [[]], 0, [(1,), (0,)], (0, 1)),
}


def test_euler_violation_detected():
    with pytest.raises(ValueError, match=MAP_REFUSALS["euler"]):
        build_drawing(*MALFORMED["euler"])


def test_bad_crossing_degree():
    with pytest.raises(ValueError, match=MAP_REFUSALS["crossing degree"]):
        build_drawing(*MALFORMED["degree"])


def test_edge_path_revisit_rejected():
    with pytest.raises(ValueError, match=r"^edge \(0, 2\) visits a crossing twice$"):
        build_drawing(*MALFORMED["revisit"])


@pytest.mark.parametrize("case, part", [
    ("revisit", ("e", 0, 2)), ("crossing-id", ("e", 0, 2)), ("id-then-revisit", ("e", 0, 2)),
    ("rotation", ("rot", 2)), ("reference", ("ref",)),
    ("degree", None), ("euler", None), ("double", None)])
def test_map_errors_name_their_part(case, part):
    # a path, rotation or reference refusal names the part of the map at
    # fault; a crossing-pass, Euler or goodness refusal belongs to no one part
    with pytest.raises(ValueError) as caught:
        build_drawing(*MALFORMED[case])
    assert isinstance(caught.value, MapError) == (part is not None)
    assert getattr(caught.value, "part", None) == part


def test_crossing_counts_by_family():
    assert planar_k4().crossings == 0
    assert gen_convex(5).crossings == 5     # C(5,4)
    assert gen_convex(6).crossings == 15    # C(6,4)


def test_adjacent_cross_detected():
    # refused before any bit is derived: the K_4 rule needs disjoint edges
    with pytest.raises(NotGoodDrawing) as caught:
        build_drawing(*MALFORMED["adjacent"])
    violations = caught.value.violations
    assert violations
    assert any(v.kind == "adjacent_cross" for v in violations)
    assert "adjacent_cross" in str(caught.value)


def test_negative_crossing_count_refused():
    with pytest.raises(ValueError) as caught:
        build_drawing(*MALFORMED["negative-crossings"])
    assert (type(caught.value), str(caught.value)) == (ValueError, "negative crossing count -1")


@pytest.mark.parametrize("case, count", [("missing-path", 5), ("extra-path", 7)])
def test_path_count_refused(case, count):
    # one path per edge of K_4, in edge order: any other count is one refusal
    with pytest.raises(ValueError) as caught:
        build_drawing(*MALFORMED[case])
    assert (type(caught.value), str(caught.value)) == (ValueError,
                                                       f"need 6 edge paths, got {count}")


def test_double_cross_detected():
    with pytest.raises(NotGoodDrawing) as caught:
        build_drawing(*MALFORMED["double"])
    kinds = {v.kind for v in caught.value.violations}
    assert "double_cross" in kinds
    assert "adjacent_cross" in kinds


def test_goodness_violations_match_oracle_on_crossing_lists():
    # the check reads only the edges and the crossing pairs, so any list
    # of edge pairs exercises it, also with many violations in any order
    rng = random.Random(4)
    edges = list(itertools.combinations(range(7), 2))
    for trial in range(300):
        pairs = [tuple(sorted(rng.sample(range(len(edges)), 2)))
                 for _ in range(rng.randrange(12))]
        pairs += rng.sample(pairs, min(len(pairs), rng.randrange(4)))
        rng.shuffle(pairs)
        stub = SimpleNamespace(edges=tuple(edges),
                               crossed_edges=tuple(e for pair in pairs for e in pair))
        assert _goodness_violations(edges, pairs) == goodness_violations(stub)


def test_delete_view_classes(k4_planar):
    view = DeletionView(k4_planar, 0)
    assert len(set(view_classes(k4_planar, view))) == 4
    assert view.incident_mask(k4_planar.reference_face) == vertex_mask([0, 1, 2])

    d5 = gen_convex(5)
    assert DeletionView(d5, 0).incident_mask(d5.reference_face) == vertex_mask(range(5))
    # keep only a triangle: a simple closed curve leaves two classes
    for triple in itertools.combinations(range(5), 3):
        view = DeletionView(d5, vertex_mask(set(range(5)) - set(triple)))
        assert len(set(view_classes(d5, view))) == 2


def test_reference_class_after_hull_deletion():
    d6 = gen_convex(6)
    view = DeletionView(d6, vertex_mask({0}))
    assert view.incident_mask(d6.reference_face) == vertex_mask([1, 2, 3, 4, 5])


def test_deletion_view_matches_replanarization_exhaustive_k5():
    d5 = gen_convex(5)
    for size in (0, 1, 2):
        for deleted in itertools.combinations(range(5), size):
            assert_view_matches_replanarization(d5, set(deleted))


def _alive_masks(rng, n, count):
    """`count` seeded vertex bitmasks of n vertices with at least 3 set."""
    masks = []
    while len(masks) < count:
        alive = rng.below(1 << n)
        if alive.bit_count() >= 3:
            masks.append(alive)
    return masks


def test_subdrawing_matches_regenerated_oracle(small_corpus):
    # the map alone gives the bytes of re-running the family's construction
    # on the surviving coordinates; the cylindrical construction names its
    # reference left of the new 0->1, where subdrawing keeps the class of
    # the old reference face
    drawings = [d for _name, _n, d in small_corpus]
    for n in (8, 11, 14):
        drawings += [gen_convex(n), gen_cylindrical(n), gen_random_points(n, n)]
    drawings += [gen_twopage(shuffled_twopage_spec(seed)) for seed in range(3, 43, 2)]
    drawings.append(gen_twopage(twopage_all_top(12)))
    rng = SplitMix64(28)
    checked = 0
    for drawing in drawings:
        n = drawing.n
        assert serialize(subdrawing(drawing, (1 << n) - 1), "map") == serialize(drawing, "map")
        crossed = drawing.crossed_edges
        for alive in _alive_masks(rng, n, 16):
            sub = subdrawing(drawing, alive)
            # the derived bits restrict the parent's
            live = [alive >> u & alive >> v & 1 for u, v in drawing.edges]
            assert sub.orientation_bits == tuple(
                bit for bit, e, f in zip(drawing.orientation_bits, crossed[::2], crossed[1::2])
                if live[e] and live[f])
            oracle, _ = regenerate_subdrawing(
                drawing, {v for v in range(n) if alive >> v & 1})
            if drawing.geometry is None:  # a tin can: the oracle replays its recipe
                sub = sub.with_reference(
                    sub.face_left_of(*oracle.face_dart(oracle.reference_face)))
            assert sub.geometry is None
            assert serialize(sub, "map") == serialize(oracle, "map"), (n, alive)
            checked += 1
    assert checked >= 600


def test_subdrawing_refusals():
    d5 = gen_convex(5)
    for alive in (0, 0b11, 0b10100):
        with pytest.raises(ValueError, match="need at least 3 alive vertices"):
            subdrawing(d5, alive)
    for alive, shown in ((1 << 5, "0x20"), (1 << 5 | 0b111, "0x27"), (-1, "-0x1"), (-8, "-0x8")):
        with pytest.raises(ValueError) as caught:
            subdrawing(d5, alive)
        assert (type(caught.value), str(caught.value)) == (
            ValueError, f"alive mask {shown} has a vertex outside 0..4")
    with pytest.raises(ValueError) as caught:
        subdrawing(d5, 7.0)
    assert (type(caught.value), str(caught.value)) == (ValueError, "alive mask 7.0 is not an int")


def test_subdrawing_keeps_a_reference_no_vertex_touches():
    # face 4 of convex K_5 is its central pentagon, which no vertex
    # touches; deleting vertex 3 of convex K_6 leaves convex K_5, in which
    # the class of face 4 is that pentagon
    d5 = gen_convex(5)
    assert subdrawing(d5.with_reference(4), 0b11111) == d5._replace(geometry=None).with_reference(4)
    assert subdrawing(gen_convex(6).with_reference(4), 0b110111) == d5._replace(
        geometry=None).with_reference(4)


def test_deletion_views_of_map_only_drawings(small_corpus):
    # flipped drawings and parsed map files carry no geometry, so only
    # subdrawing can rebuild their subdrawings
    starts = [d for _name, _n, d in small_corpus if crossing_triangles(d)]
    starts.append(gen_random_points(9, 0))
    rng = SplitMix64(28)
    drawings = [parse(serialize(gen_cylindrical(9), "map"))]
    for drawing in starts:
        for _step in range(4):
            triangles = crossing_triangles(drawing)
            flipped = flip_triangle(drawing, triangles[rng.below(len(triangles))])
            # the derived bits are the ones the move keeps, as it claims
            assert flipped.orientation_bits == drawing.orientation_bits
            drawing = flipped
            drawings.append(drawing)
    checked = 0
    for drawing in drawings:
        assert drawing.geometry is None
        n = drawing.n
        for alive in _alive_masks(rng, n, 27):
            assert_view_matches_replanarization(
                drawing, {v for v in range(n) if not alive >> v & 1})
            checked += 1
    assert checked >= 750


def _mirrored(system):
    """Every row of a rotation system reversed, still from its least entry."""
    return tuple((row[0],) + row[:0:-1] for row in system)


def test_rotation_system_weak_iso():
    d5 = gen_convex(5)
    r = d5.vertex_rotations
    reversed_r = tuple(tuple(reversed(c)) for c in r)
    assert rotation_key(r) == rotation_key(reversed_r)
    convex, cylindrical = gen_convex(5).vertex_rotations, gen_cylindrical(5).vertex_rotations
    assert cylindrical not in (convex, _mirrored(convex))
    assert rotation_key(convex) != rotation_key(cylindrical)


def test_weak_iso_relabel():
    # relabelled convex K5: rotate labels by 2
    pts = [circle_point(i) for i in range(5)]
    d1 = planarize_points(pts)
    perm = [(i + 2) % 5 for i in range(5)]
    pts2 = [pts[perm.index(i)] for i in range(5)]
    d2 = planarize_points(pts2)
    r1, r2 = d1.vertex_rotations, d2.vertex_rotations
    assert rotation_key(r1) == rotation_key(r2)


def test_weak_iso_mirrored_relabel():
    # mirroring reverses every rotation; combined with a relabelling it
    # must still be recognized, and the rows alone must not match
    from kncross.geom import Point
    from kncross.generators import gen_random_points
    d1 = gen_random_points(6, 17)
    pts = d1.geometry.points
    perm = [3, 0, 5, 1, 4, 2]
    mirrored = [None] * 6
    for old, new in enumerate(perm):
        p = pts[old]
        mirrored[new] = Point(p.x, -p.y)
    d2 = planarize_points(mirrored)
    r1, r2 = d1.vertex_rotations, d2.vertex_rotations
    assert rotation_key(r1) == rotation_key(r2)
    assert r1 == r2 or r1 != _mirrored(r2)


def test_rotation_key_matches_candidate_map_oracle():
    # 60 random K6/K7 drawings, plus relabelled and mirrored copies of a
    # third of them, compared on every pair
    rng = SplitMix64(23)
    systems = []
    for seed in range(60):
        d = gen_random_points(6 + seed % 2, 300 + seed)
        systems.append(d.vertex_rotations)
        if seed % 3 == 0:
            pts = d.geometry.points
            perm = list(range(d.n))
            for i in range(d.n - 1, 0, -1):
                j = rng.below(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            copy = [None] * d.n
            for old, new in enumerate(perm):
                p = pts[old]
                copy[new] = Point(-p.x, p.y) if seed % 2 else p
            systems.append(planarize_points(copy).vertex_rotations)
    keys = [rotation_key(r) for r in systems]
    assert keys == [reference_rotation_key(r) for r in systems]
    classes = set()
    for i, j in itertools.combinations(range(len(systems)), 2):
        same = keys[i] == keys[j]
        assert same == candidate_map_weak_iso(systems[i], systems[j]), (i, j)
        if same:
            classes.add(keys[i])
    assert classes  # some pairs coincide, so both answers are exercised
    for r, key in zip(systems, keys):
        # rows of a key start at their least entry, as `vertex_rotations` rows do
        assert key[0] == tuple(range(1, len(r)))
        assert rotation_key(key) == key
        assert candidate_map_weak_iso(key, r)


def test_rotation_key_values_match_full_enumeration():
    # the anchor filter keeps the key's value, not only its classes: every
    # system and every relabelled or mirrored copy gets the reference tuple
    rng = random.Random(16)
    systems = [(), ((),), ((1,), (0,)), ((1, 2), (0, 2), (0, 1))]
    systems += [gen_random_points(n, seed).vertex_rotations
                for n in range(3, 11) for seed in range(1, 6)]
    systems += [gen(n).vertex_rotations for n in range(3, 10)
                for gen in (gen_convex, gen_cylindrical)]
    copies = []
    for k, system in enumerate(systems):
        n = len(system)
        perm = list(range(n))
        rng.shuffle(perm)
        copy = [None] * n
        for u in range(n):
            cycle = [perm[w] for w in system[u]]
            copy[perm[u]] = tuple(reversed(cycle) if k % 2 else cycle)
        copies.append(tuple(copy))
    for system, copy in zip(systems, copies):
        key = rotation_key(system)
        assert key == reference_rotation_key(system), system
        assert rotation_key(copy) == key, copy


def test_k4_census(k4_planar, k4_crossed):
    assert loop_k4_census(k4_planar) == (1, 0)
    assert loop_k4_census(k4_crossed) == (0, 1)
    assert loop_k4_census(gen_convex(5)) == (0, 5)
    assert loop_k4_census(gen_cylindrical(5)) == (comb(5, 4) - 1, 1)


def test_k4_census_crossed_equals_crossing_count(small_corpus):
    # each crossing lies in exactly one K4 and a good K4 has at most one,
    # which is what lets `analyze` print the census from the crossing count
    for _name, _n, drawing in small_corpus:
        planar, crossed = loop_k4_census(drawing)
        assert crossed == drawing.crossings
        assert planar + crossed == comb(drawing.n, 4)


def test_k4_rotation_systems_fix_crossing_and_bit():
    # Kyncl's theorem on K_4: of its 16 rotation systems exactly the 8
    # even ones are realizable, each by exactly one of the 4 crossing
    # choices with the bit the rule derives, which a wrong rule would
    # make fail; the oracles read the same choice and bit off the rotations
    edges = edge_list(4)
    choices = [()] + [(e, f) for e, f in itertools.combinations(edges, 2)
                      if not set(e) & set(f)]
    assert len(choices) == 4
    realizable = 0
    for flips in itertools.product((0, 1), repeat=4):
        rotations = []
        for v, flip in enumerate(flips):
            others = [w for w in range(4) if w != v]
            rotations.append(tuple(others[::-1] if flip else others))
        built = []
        for pair in choices:
            args = (4, _k4_paths({edge: [0] for edge in pair}), len(pair) // 2, rotations, (0, 1))
            outcome = build_outcome(build_drawing, *args)
            assert outcome == build_outcome(reference_build_drawing, *args)
            if not isinstance(outcome[0], type):
                built.append(build_drawing(*args))
        assert len(built) == (sum(flips) % 2 == 0), flips
        for drawing in built:
            realizable += 1
            assert rotation_crossings(rotations) == set(
                zip(drawing.crossed_edges[::2], drawing.crossed_edges[1::2]))
    assert realizable == 8


@pytest.fixture(scope="module")
def rule_corpus(small_corpus):
    drawings = [drawing for _name, _n, drawing in small_corpus]
    drawings += [gen_cylindrical(13), gen_cylindrical(16)]
    drawings += [gen_random_points(14, seed) for seed in range(1, 7)]  # analyze's maps
    return drawings + [parse(serialize(drawing, "map")) for drawing in drawings]


def test_orientation_bits_derived_from_rotations(rule_corpus):
    # the build's bits are the oracle's, each read off a restricted rotation
    for drawing in rule_corpus:
        assert (rotation_bits(drawing.edges, drawing.crossed_edges, drawing.vertex_rotations)
                == drawing.orientation_bits)


@pytest.mark.parametrize("changes, crossings, refusal", [
    ({(0, 1): [0], (0, 2): [0]}, 1, "not a good drawing: adjacent_cross of edges 0-1 and 0-2"),
    ({(0, 2): [0]}, 1, "crossing 0 met by 1 edge passes, expected 2"),
    ({(0, 1): [0], (0, 2): [0], (2, 3): [0]}, 1, "crossing 0 met by 3 edge passes, expected 2"),
    ({(0, 2): [0], (1, 3): [0], (0, 3): [2], (1, 2): [2]}, 3,
     "crossing 1 met by 0 edge passes, expected 2"),
], ids=["adjacent", "met-once", "met-thrice", "id-gap"])
def test_orientation_bits_refuses_a_crossing_without_two_disjoint_passes(changes, crossings,
                                                                         refusal):
    # the rule reads the ends of two vertex-disjoint edges per crossing id,
    # so `build_drawing` refuses any other crossing before it derives a bit
    rotations = [tuple(w for w in range(4) if w != v) for v in range(4)]
    with pytest.raises(ValueError) as caught:
        build_drawing(4, _k4_paths(changes), crossings, rotations, (0, 1))
    assert str(caught.value) == refusal


def test_rotation_crossings_match_crossed_edges(rule_corpus):
    certify = [gen_random_points(12, seed) for seed in (502, 505, 511, 567, 629)]
    for drawing in rule_corpus + certify:
        crossed = drawing.crossed_edges
        assert rotation_crossings(drawing.vertex_rotations) == set(zip(crossed[::2],
                                                                       crossed[1::2]))


def test_faces_named_by_darts(small_corpus):
    # face_dart inverts face_left_of on every face a vertex touches, and
    # names each such face by its least dart
    for _name, n, drawing in small_corpus:
        darts = [(u, v) for u in range(n) for v in range(n) if u != v]
        touched = {drawing.face_left_of(u, v) for u, v in darts}
        for face in range(drawing.face_count):
            if face in touched:
                assert drawing.face_left_of(*drawing.face_dart(face)) == face
            else:
                with pytest.raises(ValueError, match="touches no vertex"):
                    drawing.face_dart(face)
        for u, v in darts:
            assert drawing.face_dart(drawing.face_left_of(u, v)) <= (u, v)
    d = gen_convex(5)
    # 0.0 == 0 passes the range check, then fails to index the edge table
    for u, v in ((0, 0), (0, 5), (-1, 2), (0.0, 1.0), (0, 1.5)):
        with pytest.raises(ValueError) as caught:
            d.face_left_of(u, v)
        assert (type(caught.value), str(caught.value)) == (ValueError, f"bad face dart ({u},{v})")


# ---------------------------------------------------------------------------
# the out-dart table and the O(crossings) census against their slow paths
# ---------------------------------------------------------------------------


def map_arguments(drawing):
    """build_drawing arguments that describe `drawing`: its own fields."""
    return (drawing.n, drawing.edge_paths, drawing.crossings, drawing.vertex_rotations,
            drawing.face_dart(drawing.reference_face), drawing.geometry)


def test_build_matches_reference_build_field_by_field(oracle_corpus):
    kept = set(Drawing._fields)
    assert {"edges", "edge_paths", "crossed_edges", "dart_count",
            "dart_faces", "face_parity", "reference_face", "face_count"} <= kept
    assert not kept & {"rot_next", "face_darts", "dart_base", "dart_face"}
    # no first-dart face table either: `face_left_of` reads `dart_faces`
    assert len(kept) == 12
    # and the maps the benchmark loads: random K_12 and K_14
    benchmark_maps = [gen_random_points(12, seed) for seed in (502, 505, 511, 567, 629)]
    benchmark_maps += [gen_random_points(14, seed) for seed in range(1, 7)]
    for drawing in oracle_corpus + benchmark_maps:
        args = map_arguments(drawing)
        built = build_outcome(build_drawing, *args)
        assert built == build_outcome(reference_build_drawing, *args)
        assert built == build_outcome(lambda: drawing)


def test_a_drawings_fields_are_its_build_arguments(small_corpus):
    # the builder takes the paths as a drawing stores them, in edge order,
    # so a drawing's own fields build it again, geometry included
    tin_can = gen_cylindrical(24)
    drawings = [drawing for _name, _n, drawing in small_corpus]
    drawings += [tin_can, subdrawing(tin_can, (1 << 24) - 1 ^ vertex_mask((2, 13, 19)))]
    drawings += [gen_random_points(12, seed) for seed in (502, 505, 511, 567, 629)]
    drawings += [gen_random_points(14, seed) for seed in range(1, 7)]
    drawings += [gen_twopage(twopage_all_top(n)) for n in range(3, 11)]
    drawings += [gen_twopage(shuffled_twopage_spec(seed)) for seed in range(200)]
    books = 0
    for d in drawings:
        assert build_drawing(d.n, d.edge_paths, d.crossings, d.vertex_rotations,
                             d.face_dart(d.reference_face), d.geometry) == d
        # a book's geometry holds its spec: a page per edge, in edge order
        if isinstance(d.geometry, TwoPageGeometry):
            assert gen_twopage(TwoPageSpec(d.geometry.order, d.geometry.pages)) == d
            assert parse(serialize(d, "twopage")) == d
            books += 1
    assert books == 4 + 8 + 200


@pytest.mark.parametrize("drawing", [gen_convex(6), gen_cylindrical(3)],
                         ids=["convex-6", "tin-can-3"])
def test_path_mapping_refused_by_name(drawing):
    # the paths come in edge order, not keyed by edge: a mapping is refused
    # as one, after the n and crossing-count checks, before the path count
    keyed = dict(zip(drawing.edges, drawing.edge_paths))
    rest = (drawing.vertex_rotations, drawing.face_dart(drawing.reference_face))
    refusal = "edge_paths is a mapping; need one path per edge in edge_list(n) order"
    for paths in (keyed, dict(list(keyed.items())[1:])):
        with pytest.raises(ValueError) as caught:
            build_drawing(drawing.n, paths, drawing.crossings, *rest)
        assert (type(caught.value), str(caught.value)) == (ValueError, refusal)
    with pytest.raises(ValueError, match=r"^negative crossing count -1$"):
        build_drawing(drawing.n, keyed, -1, *rest)
    with pytest.raises(ValueError, match=r"^need n >= 3$"):
        build_drawing(2, keyed, drawing.crossings, *rest)


def _floats(value):
    """`value`, an int or nested sequences of ints, with every int a float."""
    return float(value) if isinstance(value, int) else tuple(map(_floats, value))


@pytest.mark.parametrize("at, part, refusal", [
    (3, ("rot", 0), "rotation at 0 is not a permutation of the other vertices"),
    (1, ("e", 0, 2), "crossing id 1.0 is not an int"),
    (4, ("ref",), "bad reference dart (0.0,4.0)"),
    (2, None, "crossing count 5.0 is not an int"),
    (0, None, "n=5.0 is not an int"),
], ids=["rotations", "paths", "reference", "count", "n"])
def test_an_id_that_is_not_an_int_is_refused_by_part(at, part, refusal):
    # 0.0 == 0 passes a permutation or range check, then fails to index a
    # list: each part is refused as a ValueError that names it, and a
    # rotation, path or reference as a MapError at its part
    d = gen_convex(5)
    args = [d.n, d.edge_paths, d.crossings, d.vertex_rotations,
            d.face_dart(d.reference_face)]
    args[at] = _floats(args[at])
    with pytest.raises(ValueError) as caught:
        build_drawing(*args)
    assert str(caught.value) == refusal
    assert (type(caught.value), getattr(caught.value, "part", None)) == (
        (ValueError, None) if part is None else (MapError, part))


@pytest.mark.parametrize("method", ["with_reference", "face_dart"])
def test_a_drawings_face_that_is_not_an_int_is_refused(method):
    # as out of range: 1.0 would pass the range check and name face 1
    d6 = gen_convex(6)
    with pytest.raises(ValueError) as caught:
        getattr(d6, method)(1.0)
    assert (type(caught.value), str(caught.value)) == (ValueError, "face 1.0 out of range")


def test_flat_tables_follow_the_dart_layout_and_the_paths(small_corpus):
    # per edge, the left face of each dart; per crossing, the edges of its
    # first and second pass, the paths read in edge order
    drawings = [drawing for _name, _n, drawing in small_corpus]
    drawings += [gen_random_points(14, seed) for seed in range(1, 7)]
    for drawing in drawings:
        assert len(drawing.dart_faces) == len(drawing.edges)
        for path, faces in zip(drawing.edge_paths, drawing.dart_faces):
            assert type(faces) is tuple and len(faces) == 2 * (len(path) + 1)
            assert all(type(face) is int for face in faces)
            assert all(0 <= face < drawing.face_count for face in faces)
        assert sum(map(len, drawing.dart_faces)) == drawing.dart_count
        crossed = drawing.crossed_edges
        assert type(crossed) is tuple and len(crossed) == 2 * drawing.crossings
        assert all(type(e) is int for e in crossed)
        passes = [[] for _ in range(drawing.crossings)]
        for eid, path in enumerate(drawing.edge_paths):
            for k in path:
                passes[k].append(eid)
        assert list(zip(crossed[::2], crossed[1::2])) == [tuple(p) for p in passes]


def test_rotations_are_stored_from_their_least_neighbour(small_corpus):
    # a rotation is a cycle: where a row starts changes no field of the map
    drawings = [drawing for _name, _n, drawing in small_corpus]
    drawings += [gen_convex(n) for n in range(4, 11)]
    drawings += [gen_cylindrical(n) for n in range(5, 11)]
    drawings += [gen_twopage(twopage_all_top(n)) for n in range(4, 10)]
    for drawing in drawings:
        assert all(row[0] == min(row) for row in drawing.vertex_rotations)
        n, paths, crossings, rotations, ref, geometry = map_arguments(drawing)
        built = build_outcome(lambda: drawing)
        for shift in range(1, n - 1):
            shifted = [list(row[shift:] + row[:shift]) for row in rotations]
            assert build_outcome(build_drawing, n, paths, crossings, shifted, ref, geometry) == built


def test_edges_are_one_tuple_per_n_indexed_by_edge_ids(oracle_corpus, tmp_path):
    # every drawing of K_n, built, parsed or re-referenced, shares `edge_list(n)`
    path = tmp_path / "drawing.map"
    for drawing in oracle_corpus:
        n = drawing.n
        path.write_bytes(serialize(drawing, "map"))
        for same_n in (drawing, parse(path.read_bytes()), drawing.with_reference(0)):
            assert same_n.edges is edge_list(n)
        assert drawing.edges == tuple(itertools.combinations(range(n), 2))
        ids = edge_ids(n)
        assert [ids[u][v] for u, v in drawing.edges] == list(range(len(drawing.edges)))
        assert [ids[v][u] for u, v in drawing.edges] == list(range(len(drawing.edges)))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_map_refused_as_reference_build_refuses(case):
    outcome = build_outcome(build_drawing, *MALFORMED[case])
    assert outcome == build_outcome(reference_build_drawing, *MALFORMED[case])
    assert isinstance(outcome[0], type) and issubclass(outcome[0], Exception)


def reference_answers(drawing, mask):
    """The least face of every face's class and every face's incident
    mask, from `reference_deletion_view`."""
    classes, by_root = reference_deletion_view(drawing, mask)
    least = {}
    for face, root in enumerate(classes):
        least.setdefault(root, face)
    return ([least[root] for root in classes],
            [by_root.get(root, 0) for root in classes])


def view_answers(drawing, view):
    faces = range(drawing.face_count)
    return view_classes(drawing, view), [view.incident_mask(f) for f in faces]


def test_deletion_view_matches_reference_view(oracle_corpus):
    rng = random.Random(14)
    subsets = random.Random(20)
    for drawing in oracle_corpus:
        n, faces = drawing.n, range(drawing.face_count)
        everyone = (1 << n) - 1
        masks = [0, everyone, everyone ^ 1, everyone ^ 1 << n - 1]
        masks += [rng.getrandbits(n) for _ in range(6)]
        for mask in masks:
            view = DeletionView(drawing, mask)
            classes, by_root = reference_deletion_view(drawing, mask)
            assert ([view.incident_mask(f) for f in faces]
                    == [by_root.get(classes[f], 0) for f in faces])
            partition = len(set(classes))
            view_cls = view_classes(drawing, view)
            assert len(set(view_cls)) == len(set(zip(view_cls, classes))) == partition
            # each class is named by its least face
            assert all(view_cls[f] <= f for f in faces)
            assert all(view_cls[view_cls[f]] == view_cls[f] for f in faces)
            # grown one vertex at a time, and at once from the empty set
            chain = DeletionView(drawing, 0)
            for v in range(n):
                if mask >> v & 1:
                    chain = DeletionView(drawing, chain.deleted | 1 << v, chain)
            for grown in (chain, DeletionView(drawing, mask, DeletionView(drawing, 0))):
                assert grown.deleted == mask
                assert view_answers(drawing, grown) == view_answers(drawing, view)
            # reads halve the paths of a view's own table, so a parent read
            # at every face before it is grown must give the same view as a
            # fresh parent and as a view built without a parent, and growing
            # must leave the parent's answers as they were
            sub = mask & subsets.getrandbits(n)
            read = DeletionView(drawing, sub)
            expect_sub = reference_answers(drawing, sub)
            assert view_answers(drawing, read) == expect_sub
            expect = reference_answers(drawing, mask)
            for grown in (DeletionView(drawing, mask, read),
                          DeletionView(drawing, mask, DeletionView(drawing, sub)),
                          DeletionView(drawing, mask)):
                assert grown.deleted == mask
                assert view_answers(drawing, grown) == expect
            assert view_answers(drawing, read) == expect_sub


def _lemma_deleted_sets(n, rng):
    """Deleted sets leaving at least two survivors: all of them up to
    n = 8, a sample above."""
    everyone = (1 << n) - 1
    if n <= 8:
        masks = range(1 << n)
    else:
        masks = [rng.getrandbits(n) for _ in range(60)]
        masks += [everyone ^ (1 << a | 1 << b)
                  for a, b in rng.sample(list(itertools.combinations(range(n), 2)), 6)]
    return [mask for mask in masks if bin(everyone ^ mask).count("1") >= 2]


@pytest.mark.parametrize("n", range(5, 11))
def test_darts_to_deleted_vertices_touch_no_new_class(n):
    # the lemma behind `DeletionView.corners`: while two vertices
    # survive, a survivor's darts to all n - 1 neighbours touch the same
    # classes as its darts to survivors; read off the reference view alone
    rng = random.Random(n)
    for drawing in (gen_convex(n), gen_cylindrical(n), gen_random_points(n, n)):
        for mask in _lemma_deleted_sets(n, rng):
            classes, _by_root = reference_deletion_view(drawing, mask)
            for u in range(n):
                if mask >> u & 1:
                    continue
                every = {classes[drawing.face_left_of(u, w)] for w in range(n) if w != u}
                kept = {classes[drawing.face_left_of(u, w)] for w in range(n)
                        if w != u and not mask >> w & 1}
                assert every == kept


def test_k4_census_matches_loop(oracle_corpus, tmp_path, capsys):
    # the census `analyze --json` prints is the loop's count
    path = tmp_path / "drawing.map"
    for drawing in oracle_corpus:
        path.write_bytes(serialize(drawing, "map"))
        assert cli.main(["analyze", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["k4_planar"], report["k4_crossed"]) == loop_k4_census(drawing)
