from fractions import Fraction

from kncross.geom import Point, circle_point, point, proper_intersection
from kncross.generators import SplitMix64

from conftest import orient


def test_orient_basic():
    assert orient(point(0, 0), point(1, 0), point(0, 1)) == 1
    assert orient(point(0, 0), point(1, 1), point(2, 2)) == 0
    assert orient(point(0, 0), point(1, 0), point(1, -1)) == -1


def test_orient_antisymmetric_and_translation_invariant():
    rng = SplitMix64(42)

    def rand_point():
        return Point(Fraction(rng.below(2001) - 1000, rng.below(97) + 1),
                     Fraction(rng.below(2001) - 1000, rng.below(97) + 1))

    for _ in range(200):
        p, q, r, shift = rand_point(), rand_point(), rand_point(), rand_point()
        assert orient(p, q, r) == -orient(p, r, q)
        moved = (Point(a.x + shift.x, a.y + shift.y) for a in (p, q, r))
        assert orient(p, q, r) == orient(*moved)


def test_proper_intersection_examples():
    assert proper_intersection(point(0, 0), point(2, 2),
                               point(0, 2), point(2, 0)) == point(1, 1)
    assert proper_intersection(point(0, 0), point(1, 1),
                               point(1, 1), point(2, 0)) is None
    assert proper_intersection(point(0, 0), point(1, 0),
                               point(0, 1), point(1, 1)) is None


def test_proper_intersection_symmetric_and_exact():
    rng = SplitMix64(7)

    def rand_point():
        return point(rng.below(1000), rng.below(1000))

    hits = 0
    for _ in range(300):
        a1, a2, b1, b2 = (rand_point() for _ in range(4))
        if a1 == a2 or b1 == b2:
            continue
        p = proper_intersection(a1, a2, b1, b2)
        q = proper_intersection(b1, b2, a1, a2)
        assert p == q
        if p is not None:
            hits += 1
            # the returned point satisfies both segment equations exactly
            assert (a2 - a1).cross(p - a1) == 0
            assert (b2 - b1).cross(p - b1) == 0
    assert hits > 10


def test_collinear_overlap_is_not_a_crossing():
    assert proper_intersection(point(0, 0), point(2, 0),
                               point(1, 0), point(3, 0)) is None


def test_circle_point():
    assert circle_point(0) == point(1, 0)
    assert circle_point(1) == point(0, 1)
    assert circle_point(Fraction(1, 2)) == point(Fraction(3, 5), Fraction(4, 5))
    rng = SplitMix64(1)
    for _ in range(100):
        u = Fraction(rng.below(4001) - 2000, rng.below(199) + 1)
        p = circle_point(u)
        assert p.x * p.x + p.y * p.y == 1


def test_circle_point_monotone_in_angle():
    # increasing parameter sweeps the circle counterclockwise
    params = [Fraction(k, 7) for k in range(-30, 31)]
    pts = [circle_point(u) for u in params]
    for a, b in zip(pts, pts[1:]):
        assert orient(point(0, 0), a, b) == 1
