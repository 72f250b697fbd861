import hashlib
import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from kncross import generators
from kncross.drawing import GoodnessViolation, NotGoodDrawing, edge_ids, rotation_key
from kncross.generators import (
    SplitMix64,
    TwoPageSpec,
    _assemble_cylindrical,
    _assemble_twopage,
    _cylindrical_parameters,
    _nudged,
    _random_arrangement,
    _wrap_half,
    gen_convex,
    gen_cylindrical,
    gen_random_points,
    gen_twopage,
    twopage_all_top,
)
from kncross.geom import Point, circle_point
from kncross.kedges import hill_number, k_edge_vector
from kncross.io import parse, serialize, svg_document
from kncross.planarize import DegenerateInput

from conftest import (
    assert_view_matches_replanarization,
    crossing_triangles,
    flip_triangle,
    fraction_orientation_bits,
    fraction_segment_arrangement,
    fraction_validate_points,
    goodness_violations,
    regenerate_subdrawing,
    shuffled_twopage_spec,
)


def test_splitmix64_reference_values():
    # first outputs for seed 0 of the standard SplitMix64 sequence
    rng = SplitMix64(0)
    assert rng.next() == 0xE220A8397B1DCDAF
    assert rng.next() == 0x6E789E6AA1B965F4
    assert rng.next() == 0x06C45D188009454F


def test_convex_crossing_counts():
    for n in range(4, 11):
        assert gen_convex(n).crossings == comb(n, 4)


def test_convex_k8_faces():
    d = gen_convex(8)
    assert d.crossings == 70
    assert d.face_count == 2 - (8 + 70) + (28 + 140)


def test_cylindrical_crossing_counts():
    for n in range(4, 13):
        d = gen_cylindrical(n)
        assert d.crossings == hill_number(n), n


def test_cylindrical_beyond_the_checked_range():
    # the construction's own crossing count equals H(n) for every n, so
    # larger cases probe the assembly, not the conjecture
    for n in (13, 14):
        d = gen_cylindrical(n)
        assert d.crossings == hill_number(n)
        assert goodness_violations(d) == ()


def test_generated_drawings_are_good(small_corpus):
    for _name, _n, drawing in small_corpus:
        assert goodness_violations(drawing) == ()


def test_cylindrical_outer_cycle_uncrossed():
    for n in (7, 9, 10):
        d = gen_cylindrical(n)
        m_outer = (n + 1) // 2
        for i in range(m_outer):
            j = (i + 1) % m_outer
            eid = edge_ids(n)[i][j]
            assert d.edge_paths[eid] == ()


def test_cylindrical_region_crossing_split():
    # lids are convex sub-drawings (C(·,4) crossings each); the annulus
    # carries the rest of H(n)
    for n in (8, 11, 12):
        d = gen_cylindrical(n)
        m_outer, m_inner = (n + 1) // 2, n // 2
        outer = set(range(m_outer))
        lid_outer = lid_inner = annulus = 0
        for e1, e2 in zip(d.crossed_edges[::2], d.crossed_edges[1::2]):
            ends = set(d.edges[e1]) | set(d.edges[e2])
            if ends <= outer:
                lid_outer += 1
            elif not ends & outer:
                lid_inner += 1
            else:
                annulus += 1
        assert lid_outer == comb(m_outer, 4)
        assert lid_inner == comb(m_inner, 4)
        assert annulus == hill_number(n) - comb(m_outer, 4) - comb(m_inner, 4)


def test_smallest_cylindrical_drawings():
    d3 = gen_cylindrical(3)
    assert d3.crossings == 0 and d3.face_count == 2
    d4 = gen_cylindrical(4)
    assert d4.crossings == 0 and d4.face_count == 4


def test_cylindrical_reference_is_rim_face():
    # the rim face at the reference sees outer vertices 0 and 1
    from kncross.drawing import DeletionView
    d = gen_cylindrical(9)
    verts = DeletionView(d, 0).incident_mask(d.reference_face)
    assert verts & 0b11 == 0b11


def test_twopage_all_top_matches_convex():
    for n in range(4, 8):
        tp = gen_twopage(twopage_all_top(n))
        assert tp.crossings == comb(n, 4)
        assert (rotation_key(tp.vertex_rotations)
                == rotation_key(gen_convex(n).vertex_rotations))


def test_twopage_page_split():
    pages = ["T"] * 6
    pages[edge_ids(4)[1][3]] = "B"
    assert gen_twopage(TwoPageSpec((0, 1, 2, 3), tuple(pages))).crossings == 0


def test_twopage_spine_order_matters():
    d = gen_twopage(TwoPageSpec((0, 2, 1, 3), ("T",) * 6))
    # intervals on the spine decide crossings: now (0,1) x (2,3) interleave
    assert d.crossings == 1
    e01 = edge_ids(4)[0][1]
    assert len(d.edge_paths[e01]) == 1


# recorded before the rotations were sorted in one pass by quadrant
SHUFFLED_TWOPAGE_DIGEST = (
    "b9bc8b7d943d4c4a43f44189041d527e1d8d086f0156d7a3754a7a2b46190b5c")


def test_shuffled_twopage_specs_match_identity_spine():
    # a shuffled spine makes crossed edges that run right to left, and
    # an all-bottom first vertex takes its reference dart off the bottom
    # page; relabelling every vertex by its spine slot changes neither
    digest = hashlib.sha256()
    right_to_left = bottom_first = 0
    for seed in range(200):
        spec = shuffled_twopage_spec(seed)
        d = gen_twopage(spec)
        slot = {v: i for i, v in enumerate(spec.order)}
        ids = edge_ids(d.n)
        pages = tuple([spec.pages[ids[spec.order[a]][spec.order[b]]] for a, b in d.edges])
        identity = gen_twopage(TwoPageSpec(tuple(range(d.n)), pages))
        assert d.crossings == identity.crossings
        assert d.face_count == identity.face_count
        assert (rotation_key(d.vertex_rotations)
                == rotation_key(identity.vertex_rotations))
        assert k_edge_vector(d) == k_edge_vector(identity)
        blob = serialize(d, "twopage")
        assert serialize(parse(blob), "twopage") == blob
        digest.update(serialize(d, "map"))
        digest.update(svg_document(d).encode("utf-8"))
        right_to_left += any(path and slot[u] > slot[v]
                             for (u, v), path in zip(d.edges, d.edge_paths))
        bottom_first += all(spec.pages[ids[spec.order[0]][w]] == "B"
                            for w in spec.order[1:])
    assert (right_to_left, bottom_first) == (148, 54)
    assert digest.hexdigest() == SHUFFLED_TWOPAGE_DIGEST


def _concurrent_twopage_spec() -> TwoPageSpec:
    # [3,8], [2,6], [0,5] are concurrent at (4,2) on integer positions
    pages = ["B"] * comb(9, 2)
    for u, v in ((3, 8), (2, 6), (0, 5)):
        pages[edge_ids(9)[u][v]] = "T"
    return TwoPageSpec(tuple(range(9)), tuple(pages))


def test_twopage_concurrency_resolved():
    # the deterministic perturbation must split them into three crossings
    d = gen_twopage(_concurrent_twopage_spec())
    eids = [edge_ids(9)[u][v] for u, v in ((3, 8), (2, 6), (0, 5))]
    tops = [k for eid in eids for k in d.edge_paths[eid]]
    assert len(set(tops)) == 3
    assert goodness_violations(d) == ()


def test_unperturbed_twopage_concurrency_refused():
    spec = _concurrent_twopage_spec()
    with pytest.raises(DegenerateInput) as caught:
        _assemble_twopage(spec, [Fraction(v) for v in range(9)])
    assert caught.value.kind == "concurrent"
    edge, k1, k2 = caught.value.witness
    assert edge == (0, 5) and k1 < k2
    # the perturbation keeps the crossing set, so the crossing ids agree
    d = gen_twopage(spec)
    crossed = [tuple(d.edges[e] for e in d.crossed_edges[2 * k:2 * k + 2]) for k in (k1, k2)]
    assert crossed == [((0, 5), (2, 6)), ((0, 5), (3, 8))]


def test_cylindrical_degeneracies_refused():
    for x in (Fraction(1, 2), Fraction(-1, 2), Fraction(7, 2)):
        with pytest.raises(DegenerateInput) as caught:
            _wrap_half(x)
        assert (caught.value.kind, caught.value.witness) == ("half-turn", (x,))
    assert _wrap_half(Fraction(3, 4)) == Fraction(-1, 4)
    # outer vertex 0 and inner vertex 2 sit at one angle mod 1
    with pytest.raises(DegenerateInput) as caught:
        _assemble_cylindrical([Fraction(0), Fraction(1, 3)], [Fraction(1)],
                              [Fraction(0), Fraction(1)], [Fraction(0)])
    assert (caught.value.kind, caught.value.witness) == ("coincident", (0, 2))


def test_twopage_invalid_specs():
    # in this order: the spine, a mapping (the shape of old, a page per key
    # (u, v)), the page count, each page, then n >= 3
    for spec, reason in [
        (TwoPageSpec((0, 1, 1), ("X",)), "spine order must be a permutation of 0..n-1"),
        (TwoPageSpec((0, 1, 2, 3), dict.fromkeys(itertools.combinations(range(4), 2), "T")),
         "pages is a mapping; need one page per edge in edge_list(n) order"),
        (TwoPageSpec((0, 1, 2, 3), ("T",) * 5), "need 6 pages, got 5"),
        (TwoPageSpec((0, 1, 2, 3), ("T",) * 7), "need 6 pages, got 7"),
        (TwoPageSpec((0, 1, 2, 3), ("X",) * 5), "need 6 pages, got 5"),
        (TwoPageSpec((0, 1, 2, 3), ("T", "B", "t", "T", "B", "T")), "bad page 't'"),
        (TwoPageSpec((0, 1), ("X",)), "bad page 'X'"),
        (TwoPageSpec((1, 0), ("B",)), "need n >= 3"),
    ]:
        with pytest.raises(ValueError) as caught:
            gen_twopage(spec)
        assert (type(caught.value), str(caught.value)) == (ValueError, reason)


def test_twopage_spine_that_is_not_ints_is_refused():
    # 0.0 == 0 passes the permutation check alone; a spine of floats would
    # then index the edge-id table.  A repeated vertex is no permutation.
    for order in ((0.0, 1.0, 2.0, 3.0), (0, 1, 1, 3)):
        with pytest.raises(ValueError) as caught:
            gen_twopage(TwoPageSpec(order, ("T",) * 6))
        assert (type(caught.value), str(caught.value)) == (
            ValueError, "spine order must be a permutation of 0..n-1")


@pytest.mark.parametrize("make, args, refusal", [
    (gen_convex, (5.0,), "n=5.0 is not an int"),
    (gen_cylindrical, (5.0,), "n=5.0 is not an int"),
    (gen_random_points, (5.0, 1), "n=5.0 is not an int"),
    (gen_random_points, (5, 1.5), "seed 1.5 is not an int"),
    (twopage_all_top, (5.0,), "n=5.0 is not an int"),
], ids=["convex", "cylindrical", "random-n", "random-seed", "twopage-all-top"])
def test_a_family_refuses_an_n_or_seed_that_is_not_an_int(make, args, refusal):
    # a float n or seed is a ValueError, not a TypeError from deep inside
    with pytest.raises(ValueError) as caught:
        make(*args)
    assert (type(caught.value), str(caught.value)) == (ValueError, refusal)


def test_random_points_deterministic():
    a = gen_random_points(5, 1)
    b = gen_random_points(5, 1)
    assert serialize(a, "points") == serialize(b, "points")
    assert a.crossings == b.crossings


def test_arrangement_key_matches_drawing_key():
    # `hunt` keys a trial by its arrangement; the slow path builds the
    # map and reads the same two facts off it
    for n in range(3, 10):
        for seed in range(40):
            points, arr = _random_arrangement(n, seed)
            d = gen_random_points(n, seed)
            assert d.geometry.points == tuple(Point(Fraction(x), Fraction(y))
                                              for x, y in points)
            assert ((arr.crossings, rotation_key(arr.vertex_orders))
                    == (d.crossings, rotation_key(d.vertex_rotations)))
            assert d.orientation_bits == fraction_orientation_bits(d.geometry.points)


def test_random_arrangement_skips_rejected_draws(monkeypatch):
    # on a 12x12 grid most draws are degenerate, so the retry loop runs
    # and skips every kind of refusal
    monkeypatch.setattr(generators, "_GRID", 12)
    rejected = Counter()
    for n in range(4, 10):
        for seed in range(200):
            rng = SplitMix64(seed)
            while True:
                pts = [Point(Fraction(rng.below(12)), Fraction(rng.below(12)))
                       for _ in range(n)]
                try:
                    fraction_validate_points(pts)
                    arr = fraction_segment_arrangement(pts)
                except DegenerateInput as exc:
                    rejected[exc.kind] += 1
                    continue
                break
            points, fast = _random_arrangement(n, seed)
            assert [Point(Fraction(x), Fraction(y)) for x, y in points] == pts
            assert fast == arr
    assert set(rejected) == {"coincident", "collinear", "concurrent"}
    assert sum(rejected.values()) > 3000


# the families the one retry loop builds: the module function each attempt
# calls, a build of K_7, its number of attempts and its arguments at attempt 1
_SHUFFLED_7 = shuffled_twopage_spec(4)
RETRIED_FAMILIES = {
    "convex": ("planarize_points", lambda: gen_convex(7), 40,
               ([circle_point(u) for u in _nudged(7, 30_000)],)),
    "twopage": ("_assemble_twopage", lambda: gen_twopage(_SHUFFLED_7), 40,
                (_SHUFFLED_7, [_nudged(7, 700_000)[_SHUFFLED_7.order.index(v)]
                               for v in range(7)])),
    "cylindrical": ("_assemble_cylindrical", lambda: gen_cylindrical(7), 30,
                    _cylindrical_parameters(7, 1)),
}


def test_cylindrical_retries_only_degenerate_input(monkeypatch):
    # a perturbation resolves a degeneracy, not a defect of the
    # construction: a non-good map reaches the caller from the first try,
    # in the tin can and in every other family the retry loop builds
    for name, build, _, _ in RETRIED_FAMILIES.values():
        attempts = []

        def not_good(*args):
            attempts.append(args)
            raise NotGoodDrawing((GoodnessViolation("double_cross", ((0, 1), (2, 3))),))

        monkeypatch.setattr(generators, name, not_good)
        with pytest.raises(NotGoodDrawing):
            build()
        assert len(attempts) == 1
        monkeypatch.undo()


@pytest.mark.parametrize("family", RETRIED_FAMILIES)
def test_a_degenerate_attempt_retries_with_the_next_nudge(monkeypatch, family):
    name, build, _, second = RETRIED_FAMILIES[family]
    assert _SHUFFLED_7.order != tuple(range(7))  # slots and vertices differ
    real = getattr(generators, name)
    attempts = []

    def degenerate_once(*args):
        attempts.append(args)
        if len(attempts) == 1:
            raise DegenerateInput("concurrent", ())
        return real(*args)

    monkeypatch.setattr(generators, name, degenerate_once)
    drawing = build()
    assert len(attempts) == 2
    assert attempts[1] == second
    assert drawing == real(*second)


@pytest.mark.parametrize("family", RETRIED_FAMILIES)
def test_a_family_always_degenerate_gives_up_after_its_attempts(monkeypatch, family):
    name, build, tries, _ = RETRIED_FAMILIES[family]
    attempts = []

    def degenerate(*args):
        attempts.append(args)
        raise DegenerateInput("concurrent", ())

    monkeypatch.setattr(generators, name, degenerate)
    with pytest.raises(RuntimeError, match="^every attempt met a degenerate configuration$"):
        build()
    assert len(attempts) == tries


def test_cylindrical_recipe_is_the_generator():
    # the tin can keeps no parameters: its recipe at attempt 0 assembles it
    for n in range(3, 31):
        drawing = gen_cylindrical(n)
        assert _assemble_cylindrical(*_cylindrical_parameters(n, 0)) == drawing
        assert drawing.geometry is None


def test_regenerate_subdrawing_refuses_a_map_that_is_not_the_tin_can():
    # without geometry only a map equal to the recipe's is replayed: the
    # parsed K_9 numbers its crossings in file order, and a flipped
    # triangle moves crossings along three paths
    tin_can = gen_cylindrical(9)
    parsed = parse(serialize(tin_can, "map"))
    assert parsed.edge_paths != tin_can.edge_paths
    flipped = flip_triangle(tin_can, crossing_triangles(tin_can)[0])
    survivors = set(range(9)) - {4}
    assert regenerate_subdrawing(tin_can, survivors)[0].n == 8
    for drawing in (parsed, flipped):
        assert drawing.geometry is None
        assert rotation_key(drawing.vertex_rotations) == rotation_key(tin_can.vertex_rotations)
        with pytest.raises(ValueError, match="^drawing has no geometric provenance$"):
            regenerate_subdrawing(drawing, survivors)


def test_random_points_crossing_bounds():
    for seed in range(10):
        d = gen_random_points(5, seed)
        assert 1 <= d.crossings <= 5
        d4 = gen_random_points(4, seed)
        assert d4.crossings in (0, 1)


def test_rectilinear_minima_respected():
    # straight-line drawings can never beat the rectilinear optima
    # (1, 3, 9, 19 for n = 5..8); an undercount here would expose a
    # planarization bug.  Note 19 > H(8) = 18: only curved drawings
    # reach 18, and gen_cylindrical(8) does.
    minima = {5: 1, 6: 3, 7: 9, 8: 19}
    for n, best in minima.items():
        for seed in range(6):
            assert gen_random_points(n, seed).crossings >= best
    assert gen_cylindrical(8).crossings == 18


def test_regenerate_subdrawing_families(small_corpus):
    for name, n, drawing in small_corpus:
        if n < 6:
            continue
        sub, relabel = regenerate_subdrawing(drawing, set(range(n)) - {1})
        assert sub.n == n - 1
        assert goodness_violations(sub) == ()


def test_deletion_view_oracle_per_family():
    cases = [
        (gen_convex(6), {0, 3}),
        (gen_cylindrical(7), {2, 5}),
        (gen_twopage(twopage_all_top(6)), {1, 4}),
        (gen_random_points(7, 9), {0, 6}),
    ]
    for drawing, deleted in cases:
        assert_view_matches_replanarization(drawing, deleted)


def test_deletion_view_oracle_exhaustive_cylindrical_k6():
    drawing = gen_cylindrical(6)
    for size in range(0, 4):
        for deleted in itertools.combinations(range(6), size):
            assert_view_matches_replanarization(drawing, set(deleted))
