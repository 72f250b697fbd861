from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

from kncross import planarize
from kncross.drawing import build_drawing
from kncross.generators import SplitMix64, gen_random_points
from kncross.geom import Point, circle_point, point
from kncross.planarize import (
    DegenerateInput,
    crossing_path,
    planarize_points,
    segment_arrangement,
)

from conftest import (
    brute_force_crossing_count,
    fraction_orientation_bits,
    fraction_segment_arrangement,
    fraction_unbounded_reference,
    fraction_validate_points,
    goodness_violations,
)


def test_square_has_one_crossing():
    d = planarize_points([point(0, 0), point(1, 0), point(1, 1), point(0, 1)])
    assert d.crossings == 1


def test_point_in_triangle_no_crossing():
    d = planarize_points([point(0, 0), point(4, 0), point(0, 4), point(1, 1)])
    assert d.crossings == 0
    assert d.face_count == 4


def test_pentagon_counts():
    d = planarize_points([circle_point(i) for i in range(5)])
    assert d.crossings == 5
    assert d.face_count == 12


def test_two_points_are_refused():
    with pytest.raises(ValueError) as caught:
        planarize_points([point(0, 0), point(1, 0)])
    assert (type(caught.value), str(caught.value)) == (ValueError, "need at least 3 points")


def test_degeneracies_rejected():
    with pytest.raises(DegenerateInput) as err:
        segment_arrangement([point(0, 0), point(1, 1), point(0, 0)])
    assert err.value.kind == "coincident"

    with pytest.raises(DegenerateInput) as err:
        planarize_points([point(0, 0), point(1, 1), point(2, 2), point(0, 3)])
    assert err.value.kind == "collinear"

    # three concurrent diagonals: regular hexagon on rational-ish coordinates
    hexagon = [point(2, 0), point(1, 2), point(-1, 2),
               point(-2, 0), point(-1, -2), point(1, -2)]
    with pytest.raises(DegenerateInput) as err:
        planarize_points(hexagon)
    assert err.value.kind == "concurrent"


def test_crossing_count_matches_brute_force_on_random_inputs():
    for seed in range(12):
        n = 5 + seed % 4
        d = gen_random_points(n, seed)
        pts = d.geometry.points
        assert d.crossings == brute_force_crossing_count(pts)


def test_planarized_drawings_are_good():
    for seed in range(8):
        d = gen_random_points(6, seed + 100)
        assert goodness_violations(d) == ()


def test_unbounded_reference_face():
    # the reference face of a geometric drawing touches every hull vertex
    from kncross.drawing import DeletionView
    d = planarize_points([circle_point(i) for i in range(7)])
    assert DeletionView(d, 0).incident_mask(d.reference_face) == (1 << 7) - 1


# ---------------------------------------------------------------------------
# integer predicates against the exact-Fraction slow path
# ---------------------------------------------------------------------------


def _reference_dart(pts):
    """The reference dart `planarize_points` hands to `build_drawing`."""
    darts = []

    def spy(*args, **kwargs):
        darts.append(kwargs["reference"])
        return build_drawing(*args, **kwargs)

    with mock.patch.object(planarize, "build_drawing", spy):
        planarize_points(pts)
    return darts[0]


def _outcome(arrange, reference, pts):
    try:
        return ("ok", arrange(pts), reference(pts))
    except DegenerateInput as exc:
        return ("degenerate", exc.kind, exc.witness)


def _fraction_arrangement(pts):
    fraction_validate_points(pts)
    return fraction_segment_arrangement(pts)


def _assert_matches_fraction_path(pts):
    fast = _outcome(segment_arrangement, _reference_dart, pts)
    slow = _outcome(_fraction_arrangement, fraction_unbounded_reference, pts)
    assert fast == slow
    if fast[0] == "ok":
        # the bits derived from the rotations are the geometric turns
        assert planarize_points(pts).orientation_bits == fraction_orientation_bits(pts)
    return fast[0] if fast[0] == "ok" else fast[1]


def test_integer_arrangement_matches_fraction_on_grid_points():
    # a 12x12 grid makes every kind of degeneracy common
    rng = SplitMix64(7)
    kinds = Counter()
    for trial in range(150):
        n = 4 + trial % 6
        pts = [point(rng.below(12), rng.below(12)) for _ in range(n)]
        kinds[_assert_matches_fraction_path(pts)] += 1
    assert set(kinds) == {"ok", "coincident", "collinear", "concurrent"}


def test_integer_arrangement_matches_fraction_on_mixed_denominators():
    rng = SplitMix64(11)
    denominators = (1, 3, 7, 10, 100, 1000, 10**6)
    kinds = Counter()
    for trial in range(120):
        n = 4 + trial % 6
        pts = [Point(Fraction(rng.below(2001) - 1000, denominators[rng.below(7)]),
                     Fraction(rng.below(2001) - 1000, denominators[rng.below(7)]))
               for _ in range(n)]
        kinds[_assert_matches_fraction_path(pts)] += 1
    assert kinds["ok"] >= 60, kinds


def test_integer_arrangement_matches_fraction_on_circle_points():
    rng = SplitMix64(5)
    for n in range(3, 13):
        kind = _assert_matches_fraction_path([circle_point(i) for i in range(n)])
        params = sorted({Fraction(rng.below(4001) - 2000, rng.below(50) + 1)
                         for _ in range(n)})
        _assert_matches_fraction_path([circle_point(u) for u in params])
    # twelve integer parameters put three diagonals through one point
    assert kind == "concurrent"


def test_crossing_path_is_a_sort_by_position():
    rng = SplitMix64(17)
    for trial in range(200):
        m = rng.below(9)
        ints = {rng.below(10**6) for _ in range(m)}
        fracs = {Fraction(rng.below(10**6), 1 + rng.below(10**6)) for _ in range(m)}
        for positions in (list(ints), list(fracs)):
            order = sorted(range(len(positions)), key=positions.__getitem__)
            hits = [(t, k) for k, t in enumerate(positions)]
            assert crossing_path(hits, (0, 1)) == tuple(order)


@pytest.mark.parametrize("hits, witness", [
    ([(5, 3), (2, 1), (5, 0)], ((2, 7), 0, 3)),
    ([(Fraction(1, 2), 4), (Fraction(1, 3), 6), (Fraction(2, 6), 2)], ((2, 7), 2, 6)),
])
def test_crossing_path_refuses_two_crossings_at_one_position(hits, witness):
    with pytest.raises(DegenerateInput) as caught:
        crossing_path(hits, (2, 7))
    assert (caught.value.kind, caught.value.witness) == ("concurrent", witness)


def test_integer_degeneracies_match_fraction_witnesses():
    hexagon = [point(2, 0), point(1, 2), point(-1, 2),
               point(-2, 0), point(-1, -2), point(1, -2)]
    for pts in (hexagon,
                [point(0, 0), point(1, 1), point(0, 0)],
                [point(0, 0), point(1, 1), point(2, 2), point(0, 3)],
                [point("1/3", 0), point(0, "1/7"), point("2/3", "-1/7")]):
        assert _assert_matches_fraction_path(pts) != "ok"


# ---------------------------------------------------------------------------
# near ties and planted ties for the floor sort keys
# ---------------------------------------------------------------------------


def _farey_pair(p1: int, q1: int):
    """(p2, q2) with p2*q1 - p1*q2 == 1 and q2 > q1: p2/q2 - p1/q1 == 1/(q1*q2)."""
    p2 = pow(q1, -1, p1)
    q2 = (p2 * q1 - 1) // p1
    return p2 + p1, q2 + q1


@pytest.mark.parametrize("q1", [10**12 + 39, 10**15 + 37, 2**61 - 1])
@pytest.mark.parametrize("shift", [(0, 1), (Fraction(1, 7), 3), (Fraction(-5, 11), 1000)])
def test_near_tie_parameters_on_one_edge_match_fraction(q1, shift):
    # A->B is crossed only by C->D1 and C->D2, at x = p1/q1 and p2/q2,
    # which differ by exactly 1/(q1*q2); at C the directions to D1 and D2
    # are as close.  Both stored denominators exceed 10^12.
    p1 = q1 // 3 + 1
    p2, q2 = _farey_pair(p1, q1)
    assert p2 * q1 - p1 * q2 == 1 and min(q1, q2) > 10**12
    offset, scale = shift
    pts = [Point(offset + Fraction(x, scale), offset + Fraction(y, scale))
           for x, y in ((0, 0), (1, 0), (0, -1), (p1, q1 - 1), (p2, q2 - 1))]
    assert _assert_matches_fraction_path(pts) == "ok"
    arr = segment_arrangement(pts)
    d = planarize_points(pts)  # which edges cross is what the map derives
    assert [d.crossed_edges[2 * k:2 * k + 2] for k in arr.edge_paths[0]] == [(0, 7), (0, 8)]
    assert arr.vertex_orders[2] == (1, 4, 3, 0)


@pytest.mark.parametrize("pts", [
    [(0, 0), (8, 7), (1, 5), (6, 1), (0, 6), (7, 0)],
    [(0, 0), (9, 4), (2, 3), (7, 0), (1, 3), (6, 1)],
    [(0, 0), (9, 7), (0, 6), (7, 0), (1, 4), (8, 1)],
])
def test_crossing_denominators_up_to_twice_the_box_area(pts):
    # the diagonal 0->1 of a width x height box is crossed twice, with
    # denominators above width*height (up to 2*width*height) and parameters
    # 1/(den1*den2) apart: a key scale of (width*height)^2 would tie them
    assert _assert_matches_fraction_path([point(x, y) for x, y in pts]) == "ok"


def test_planted_concurrencies_match_fraction_witnesses():
    # three segments through one point near 10^9, endpoints at mixed
    # rational distances; nudging one endpoint by 10^-9 breaks the tie
    rng = SplitMix64(16)
    kinds = Counter()
    for trial in range(40):
        cx = Fraction(rng.below(2 * 10**9) - 10**9, 1 + rng.below(97))
        cy = Fraction(rng.below(2 * 10**9) - 10**9, 1 + rng.below(89))
        pts = []
        for _ in range(3):
            vx, vy = rng.below(2001) - 1000, rng.below(2001) - 1000
            for sign in (1, -1):
                f = sign * Fraction(1 + rng.below(10**4), 1 + rng.below(10**3))
                pts.append(Point(cx + f * vx, cy + f * vy))
        pts.append(Point(Fraction(rng.below(2 * 10**9) - 10**9, 1 + rng.below(50)),
                         Fraction(rng.below(2 * 10**9) - 10**9, 1 + rng.below(50))))
        kinds[_assert_matches_fraction_path(pts)] += 1
        nudged = list(pts)
        nudged[0] = Point(pts[0].x + Fraction(1, 10**9), pts[0].y)
        kinds["nudged " + _assert_matches_fraction_path(nudged)] += 1
    assert kinds["concurrent"] == 40 and kinds["nudged ok"] >= 30, kinds
