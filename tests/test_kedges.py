import itertools
import random
from math import comb

import pytest

from kncross.drawing import DeletionView, subdrawing
from kncross.generators import SplitMix64, gen_convex, gen_cylindrical, gen_random_points
from kncross.kedges import (
    crossings_from_cumulative,
    crossings_from_k_edges,
    cumulative_sums,
    double_cumulative_bound_holds,
    hill_number,
    k_edge_vector,
    k_value,
    right_mask,
)

from conftest import brute_k_vector, loop_k4_census, view_k_vector, view_side


def test_hill_number_table():
    table = {5: 1, 6: 3, 7: 9, 8: 18, 9: 36, 10: 60, 11: 100, 12: 150}
    for n, value in table.items():
        assert hill_number(n) == value
    assert hill_number(3) == 0 and hill_number(4) == 0
    # n = 5.0 would pass the range check and give 1.0; the identities
    # would reach a TypeError from comb or from indexing by k
    v5 = k_edge_vector(gen_convex(5))
    for call, args, refusal in (
            (hill_number, (0,), "need n >= 1"),
            (hill_number, (5.0,), "n=5.0 is not an int"),
            (crossings_from_k_edges, (5.0, v5), "n=5.0 is not an int"),
            (crossings_from_cumulative, (5.0, v5), "n=5.0 is not an int"),
            (double_cumulative_bound_holds, (5, v5, 0.0), "k=0.0 out of range for n=5")):
        with pytest.raises(ValueError) as caught:
            call(*args)
        assert (type(caught.value), str(caught.value)) == (ValueError, refusal)


def test_right_mask_convex_k5():
    # 2 is L for 0->1, and 1 is R for 0->2
    d = gen_convex(5)
    assert not right_mask(d, 0, 1) >> 2 & 1
    assert right_mask(d, 0, 2) >> 1 & 1


def test_side_swap_property(small_corpus):
    # relative to edges from a common vertex a: if v is L for a->u
    # then u is R for a->v
    for _name, n, drawing in small_corpus[:6]:
        for a, u, v in itertools.permutations(range(min(n, 5)), 3):
            lhs = right_mask(drawing, a, u) >> v & 1
            rhs = right_mask(drawing, a, v) >> u & 1
            assert lhs != rhs


def _oracle_drawings(small_corpus):
    drawings = [d for _name, _n, d in small_corpus]
    return drawings + [gen_random_points(10, 3), gen_cylindrical(9)]


def test_right_mask_matches_view_oracle(small_corpus):
    # every dart at every reference face
    for drawing in _oracle_drawings(small_corpus):
        n = drawing.n
        for face in range(drawing.face_count):
            d = drawing.with_reference(face)
            for u, v in itertools.permutations(range(n), 2):
                want = sum(1 << w for w in range(n) if w not in (u, v)
                           and view_side(d, u, v, w) == "R")
                assert right_mask(d, u, v) == want


def test_k_value_over_alive_mask_matches_view_oracle(small_corpus):
    rng = random.Random(9)
    for d in _oracle_drawings(small_corpus):
        n = d.n
        masks = [rng.getrandbits(n) for _ in range(20)] + [(1 << n) - 1]
        for u, v in d.edges:
            for alive in masks:
                if not alive >> u & alive >> v & 1:  # not an edge of the subdrawing
                    for edge in ((u, v), (v, u)):
                        with pytest.raises(ValueError, match=r"is not in the subdrawing"):
                            k_value(d, edge, alive)
                    continue
                others = [w for w in range(n) if alive >> w & 1 and w not in (u, v)]
                rights = sum(1 for w in others if view_side(d, u, v, w) == "R")
                want = min(rights, len(others) - rights)
                assert k_value(d, (u, v), alive) == want
                assert k_value(d, (v, u), alive) == want
            assert k_value(d, (u, v)) == k_value(d, (u, v), (1 << n) - 1)


def test_k_value_over_alive_mask_equals_k_value_in_subdrawing(small_corpus):
    # side labels are triangle-local: the k-value within a mask is the
    # k-value in the rebuilt subdrawing, whose reference is the class of
    # the old one, a face some kept segment borders even where no
    # surviving vertex touches it
    rng = SplitMix64(28)
    checked = 0
    for _name, n, drawing in small_corpus:
        for _ in range(10):
            d = drawing.with_reference(rng.below(drawing.face_count))
            alive = rng.below(1 << n)
            keep = [v for v in range(n) if alive >> v & 1]
            if len(keep) < 3:
                continue
            sub = subdrawing(d, alive)
            for (u, v) in itertools.combinations(keep, 2):
                assert k_value(sub, (keep.index(u), keep.index(v))) == k_value(d, (u, v), alive)
                checked += 1
    assert checked >= 400


def test_side_oracle_refuses_bad_vertices():
    d = gen_convex(5)
    with pytest.raises(ValueError, match=r"^bad face dart \(0,0\)$"):
        right_mask(d, 0, 0)
    for u, v in ((0, 0), (0, 5), (-1, 2)):
        with pytest.raises(ValueError):
            right_mask(d, u, v)
    for alive in (1 << 5, -1):
        with pytest.raises(ValueError):
            k_value(d, (0, 1), alive)
    with pytest.raises(ValueError) as caught:
        k_value(d, (0, 1), 7.0)
    assert (type(caught.value), str(caught.value)) == (ValueError, "alive mask 7.0 is not an int")


@pytest.mark.parametrize("alive", [0b110, 0b1, 0b10, 0])
def test_k_value_refuses_an_edge_outside_the_subdrawing(alive):
    # edge 0-1 has an endpoint outside each mask, so it is no edge of D[alive]
    d = gen_cylindrical(7)
    for edge in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match=rf"^edge \({edge[0]},{edge[1]}\) is not in "
                                             rf"the subdrawing on {alive:#x}$"):
            k_value(d, edge, alive)
    assert k_value(d, (0, 1), 0b11) == 0


def test_k_edge_vector_builds_no_views(monkeypatch):
    drawings = [gen_random_points(10, 3), gen_cylindrical(9)]
    expected = [[view_k_vector(d.with_reference(f)) for f in range(d.face_count)]
                for d in drawings]
    builds = []

    def refuse(self, *args, **kwargs):
        builds.append(args)
        raise AssertionError("k-edge vectors must not build deletion views")

    monkeypatch.setattr(DeletionView, "__init__", refuse)
    for d, per_face in zip(drawings, expected):
        assert k_edge_vector(d) == per_face[d.reference_face]
        for face, counts in enumerate(per_face):
            assert k_edge_vector(d.with_reference(face)) == counts
    assert builds == []


def test_k_value_orientation_independent(small_corpus):
    for _name, _n, drawing in small_corpus:
        for (u, v) in drawing.edges:
            assert k_value(drawing, (u, v)) == k_value(drawing, (v, u))


def test_k_values_convex_k5():
    d = gen_convex(5)
    assert k_value(d, (0, 1)) == 0    # hull edge
    assert k_value(d, (0, 2)) == 1    # diagonal


def test_k_vector_planar_k4(k4_planar):
    assert k_edge_vector(k4_planar) == (3, 3)


def test_k_vector_crossed_k4_both_face_types(k4_crossed):
    assert k_edge_vector(k4_crossed) == (4, 2)
    for face in range(k4_crossed.face_count):
        if face == k4_crossed.reference_face:
            continue
        assert k_edge_vector(k4_crossed.with_reference(face)) == (4, 2)


def test_k_vector_convex_k6():
    d = gen_convex(6)
    vec = k_edge_vector(d)
    assert vec == (6, 6, 3)
    assert cumulative_sums(vec) == ((6, 12, 15), (6, 18, 33))


def test_k_vector_sums_to_edge_count(small_corpus):
    for _name, n, drawing in small_corpus:
        assert sum(k_edge_vector(drawing)) == comb(n, 2)


def test_vector_matches_geometric_oracle():
    # independent oracle: orientation side counts on the raw points
    for seed in range(10):
        n = 5 + seed % 4
        d = gen_random_points(n, 40 + seed)
        assert k_edge_vector(d) == brute_k_vector(d.geometry.points)
    for n in range(4, 9):
        d = gen_convex(n)
        assert k_edge_vector(d) == brute_k_vector(d.geometry.points)


def test_crossing_identities(small_corpus):
    for _name, _n, drawing in small_corpus:
        vec = k_edge_vector(drawing)
        assert crossings_from_k_edges(drawing.n, vec) == drawing.crossings
        assert crossings_from_cumulative(drawing.n, vec) == drawing.crossings


def test_weighted_pair_count_identity(small_corpus):
    # 3P + 2N equals the weighted k-edge sum, P and N counted K4 by K4
    for _name, n, drawing in small_corpus:
        planar, crossed = loop_k4_census(drawing)
        vec = k_edge_vector(drawing)
        weighted = sum(k * (n - 2 - k) * ek for k, ek in enumerate(vec))
        assert 3 * planar + 2 * crossed == weighted


def test_zero_edges_on_reference_face(small_corpus):
    for _name, _n, drawing in small_corpus:
        ref = drawing.reference_face
        for eid, faces in enumerate(drawing.dart_faces):
            if ref in faces:
                assert k_value(drawing, drawing.edges[eid]) == 0


def test_double_cumulative_bound():
    vec5 = k_edge_vector(gen_convex(5))
    assert double_cumulative_bound_holds(5, vec5, 0)     # 5 >= 3
    vec6 = k_edge_vector(gen_convex(6))
    assert double_cumulative_bound_holds(6, vec6, 1)     # 18 >= 12
    with pytest.raises(ValueError):
        double_cumulative_bound_holds(6, vec6, 5)


@pytest.mark.parametrize("identity", [
    crossings_from_k_edges,
    crossings_from_cumulative,
    lambda n, vector: double_cumulative_bound_holds(n, vector, 0),
], ids=["k-edges", "cumulative", "double-bound"])
@pytest.mark.parametrize("n, vector", [
    (7, (1, 2)), (8, (1,)), (8, ()), (7, (1, 2, 3, 4, 5)), (8, (1, 2, 3, 4, 5)),
], ids=["7-short", "8-short", "8-empty", "7-long", "8-long"])
def test_identities_refuse_a_vector_of_the_wrong_length(identity, n, vector):
    # a K_n vector has floor(n/2) entries; the message names both lengths
    with pytest.raises(ValueError) as caught:
        identity(n, vector)
    assert str(caught.value) == (f"a k-edge vector of K_{n} has {n // 2} entries, "
                                 f"not {len(vector)}")


def test_vector_equal_across_weak_iso_realizations():
    # the all-top book drawing and the convex drawing are the same map up
    # to relabelling, with matching unbounded reference faces, so their
    # k-edge vectors coincide
    from kncross.generators import gen_twopage, twopage_all_top
    for n in range(4, 8):
        assert (k_edge_vector(gen_twopage(twopage_all_top(n)))
                == k_edge_vector(gen_convex(n)))


def test_k3_degenerate_sums():
    d3 = gen_convex(3)
    assert k_edge_vector(d3) == (3,)
    assert crossings_from_k_edges(3, k_edge_vector(d3)) == 0
    assert crossings_from_cumulative(3, k_edge_vector(d3)) == 0


def test_identity_example_values():
    d4 = gen_convex(4)
    assert crossings_from_k_edges(4, k_edge_vector(d4)) == 1
    d5 = gen_convex(5)
    assert crossings_from_k_edges(5, k_edge_vector(d5)) == 15 - 2 * 5 == 5
    d6 = gen_convex(6)
    assert crossings_from_k_edges(6, k_edge_vector(d6)) == 45 - (1 * 3 * 6 + 2 * 2 * 3) == 15
    assert crossings_from_cumulative(6, k_edge_vector(d6)) == 2 * (6 + 18) - 15 - 18 == 15
