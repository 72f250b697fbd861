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
    _random_arrangement,
    _wrap_half,
    gen_convex,
    gen_cylindrical,
    gen_random_points,
    gen_twopage,
    twopage_all_top,
)
from kncross.geom import Point
from kncross.kedges import hill_number, k_edge_vector
from kncross.io import parse, serialize, svg_document
from kncross.planarize import DegenerateInput

from conftest import (
    assert_view_matches_replanarization,
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
    pages = {e: "T" for e in itertools.combinations(range(4), 2)}
    pages[(1, 3)] = "B"
    assert gen_twopage(TwoPageSpec((0, 1, 2, 3), pages)).crossings == 0


def test_twopage_spine_order_matters():
    pages = {e: "T" for e in itertools.combinations(range(4), 2)}
    d = gen_twopage(TwoPageSpec((0, 2, 1, 3), pages))
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
        pages = {tuple(sorted((slot[u], slot[v]))): page
                 for (u, v), page in spec.pages.items()}
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
        bottom_first += all(spec.page(spec.order[0], w) == "B"
                            for w in range(d.n) if w != spec.order[0])
    assert (right_to_left, bottom_first) == (148, 54)
    assert digest.hexdigest() == SHUFFLED_TWOPAGE_DIGEST


def _concurrent_twopage_spec() -> TwoPageSpec:
    # [3,8], [2,6], [0,5] are concurrent at (4,2) on integer positions
    pages = {e: "B" for e in itertools.combinations(range(9), 2)}
    for e in ((3, 8), (2, 6), (0, 5)):
        pages[e] = "T"
    return TwoPageSpec(tuple(range(9)), pages)


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
    with pytest.raises(ValueError):
        gen_twopage(TwoPageSpec((0, 1, 1), {}))
    pages = {e: "T" for e in itertools.combinations(range(4), 2)}
    del pages[(0, 1)]
    with pytest.raises(ValueError):
        gen_twopage(TwoPageSpec((0, 1, 2, 3), pages))
    # every key is an edge (u, v) with u < v: a reversed key, or a doubled
    # one whose twopage file would list the edge twice, is refused
    pages[(1, 0)] = "T"
    with pytest.raises(ValueError):
        gen_twopage(TwoPageSpec((0, 1, 2, 3), pages))
    pages[(0, 1)] = "B"
    with pytest.raises(ValueError):
        gen_twopage(TwoPageSpec((0, 1, 2, 3), pages))


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
            assert ((len(arr.crossings), rotation_key(arr.vertex_orders))
                    == (d.crossings, rotation_key(d.vertex_rotations)))


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


def test_cylindrical_retries_only_degenerate_input(monkeypatch):
    # a perturbation resolves a degeneracy, not a defect of the
    # construction: a non-good map reaches the caller from the first try
    attempts = []

    def not_good(*args):
        attempts.append(args)
        raise NotGoodDrawing((GoodnessViolation("double_cross", ((0, 1), (2, 3))),))

    monkeypatch.setattr(generators, "_assemble_cylindrical", not_good)
    with pytest.raises(NotGoodDrawing):
        gen_cylindrical(7)
    assert len(attempts) == 1


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
