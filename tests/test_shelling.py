import functools
import itertools
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kncross import shelling
from kncross.drawing import DeletionView, rotation_key
from kncross.generators import SplitMix64, gen_convex, gen_cylindrical, gen_random_points
from kncross.io import serialize
from kncross.kedges import (cumulative_sums, double_cumulative_bound_holds, hill_number,
                            k_edge_vector)
from kncross.shelling import (
    BishellWitness,
    ShellWitness,
    _greedy_peel,
    bishell_witness_violation,
    check_bishellable,
    check_s_shellable,
    invariant_edge_report,
    shell_to_bishell,
    shell_witness_violation,
    sufficient_conditions,
    truncate_bishell,
)

from conftest import (child_view_bishell, crossing_triangles, flip_triangle, longest_peel,
                      loop_incident, peel_closure_holds, replay_shell_search,
                      shelling_sequences, two_pass_bishell, vertex_faces, vertex_mask,
                      view_classes)


def naive_bishellable(drawing, s):
    """Brute-force existence over all faces and all sequence pairs."""
    memo = {}
    vertices = range(drawing.n)
    for face in range(drawing.face_count):
        for a in itertools.permutations(vertices, s + 1):
            for b in itertools.permutations(vertices, s + 1):
                witness = BishellWitness(face=face, a_seq=a, b_seq=b)
                if bishell_witness_violation(drawing, witness, memo) is None:
                    return True
    return False


def test_shelling_sequences_counts():
    d5 = gen_convex(5)
    assert len(list(shelling_sequences(d5, d5.reference_face, 1))) == 5
    d6 = gen_convex(6)
    assert len(list(shelling_sequences(d6, d6.reference_face, 2))) == 30


def test_shelling_sequences_planar_k4(k4_planar):
    seqs = list(shelling_sequences(k4_planar, k4_planar.reference_face, 1))
    assert len(seqs) == 3    # only the outer triangle touches the outer face


def test_shelling_sequence_prefix_property():
    d6 = gen_convex(6)
    for seq in shelling_sequences(d6, d6.reference_face, 3):
        deleted = 0
        for v in seq:
            assert DeletionView(d6, deleted).incident_mask(d6.reference_face) >> v & 1
            deleted |= 1 << v


def test_shell_witness_hull_triple():
    d6 = gen_convex(6)
    assert shell_witness_violation(d6, ShellWitness(d6.reference_face, (0, 1, 2))) is None
    assert shell_witness_violation(d6, ShellWitness(d6.reference_face, (3, 4, 5))) is None


def test_shell_search_convex():
    for n, s in ((4, 2), (6, 3), (8, 4)):
        d = gen_convex(n)
        witness = check_s_shellable(d, s)
        assert witness is not None
        assert shell_witness_violation(d, witness) is None


def test_shell_search_negative_face():
    # an interior cell of convex K6 with no incident vertices cannot shell
    d6 = gen_convex(6)
    vertexless = None
    for face in range(d6.face_count):
        if face not in vertex_faces(d6):
            vertexless = face
            break
    assert vertexless is not None
    assert check_s_shellable(d6, 2, face=vertexless) is None


def test_malformed_witnesses_raise():
    d5 = gen_convex(5)
    with pytest.raises(ValueError, match=r"^duplicate vertex in v-sequence$"):
        shell_witness_violation(d5, ShellWitness(0, (1, 1)))
    with pytest.raises(ValueError, match=r"^vertex 7 out of range in v-sequence$"):
        shell_witness_violation(d5, ShellWitness(0, (7,)))
    with pytest.raises(ValueError,
                       match=r"^a- and b-sequences must have equal length >= 1$"):
        bishell_witness_violation(d5, BishellWitness(0, (0, 1), (2,)))
    with pytest.raises(ValueError, match=r"^face 99 out of range$"):
        bishell_witness_violation(d5, BishellWitness(99, (0,), (1,)))
    # a face given to a search is checked before the search starts
    for search in (lambda f: check_bishellable(d5, 1, face=f),
                   lambda f: check_s_shellable(d5, 3, face=f),
                   lambda f: check_s_shellable(d5, face=f)):
        for face in (-1, d5.face_count):
            with pytest.raises(ValueError, match=rf"^face {face} out of range$"):
                search(face)


@pytest.mark.parametrize("check", [
    lambda d, face: check_s_shellable(d, 3, face=face),
    lambda d, face: check_bishellable(d, 1, face=face),
    lambda d, face: shell_witness_violation(d, ShellWitness(face, (0, 1))),
    lambda d, face: bishell_witness_violation(d, BishellWitness(face, (0,), (1,))),
], ids=["shell-search", "bishell-search", "shell-witness", "bishell-witness"])
def test_a_face_that_is_not_an_int_is_refused(check):
    # 1.0 == 1 would pass a range check alone; one check in `drawing`
    # refuses it as every face out of range is refused
    d5 = gen_convex(5)
    with pytest.raises(ValueError) as caught:
        check(d5, 1.0)
    assert (type(caught.value), str(caught.value)) == (ValueError, "face 1.0 out of range")


def test_bad_caller_input_is_a_value_error():
    # every public search, verifier and witness transformation refuses bad
    # input with a plain ValueError; WitnessInvalid is only the CLI's
    # internal error, a search witness its verifier refuses
    d5 = gen_convex(5)
    n, faces = d5.n, d5.face_count
    face = check_bishellable(d5, 1).face
    refusals = [
        (shell_to_bishell, (ShellWitness(0, (3,)),),
         r"^need a shell witness of length >= 2$"),
        (truncate_bishell, (BishellWitness(0, (0,), (1,)),),
         r"^cannot truncate an order-0 witness$"),
        (invariant_edge_report, (d5, BishellWitness(face, (0, 1), (0, 1))),
         r"^witness does not verify$"),
        (check_bishellable, (d5, -1), rf"^order s=-1 out of range for n={n}$"),
        (check_bishellable, (d5, n - 1), rf"^order s={n - 1} out of range for n={n}$"),
        (check_s_shellable, (d5, 0), rf"^s=0 out of range for n={n}$"),
        (check_s_shellable, (d5, n + 1), rf"^s={n + 1} out of range for n={n}$"),
        (check_bishellable, (d5, 1, faces), rf"^face {faces} out of range$"),
        (check_s_shellable, (d5, 3, faces), rf"^face {faces} out of range$"),
        (check_s_shellable, (d5, None, -1), r"^face -1 out of range$"),
        # a float equal to an int would pass the range check
        (check_bishellable, (d5, 1.0), rf"^order s=1.0 out of range for n={n}$"),
        (check_s_shellable, (d5, 3.0), rf"^s=3.0 out of range for n={n}$"),
        (shell_witness_violation, (d5, ShellWitness(0, (0.0, 1.0))),
         r"^vertex 0.0 out of range in v-sequence$"),
        # no order passed: the refusal names the default, not the caller's
        (check_bishellable, (gen_convex(3),),
         r"^default order s=floor\(n/2\)-2=-1 out of range for n=3$"),
        (check_bishellable, (gen_cylindrical(3),),
         r"^default order s=floor\(n/2\)-2=-1 out of range for n=3$"),
        (shell_witness_violation, (d5, ShellWitness(0, ())),
         r"^sequence length 0 out of range$"),
        (shell_witness_violation, (d5, ShellWitness(0, (0, 0))),
         r"^duplicate vertex in v-sequence$"),
        # each vertex is checked before any is hashed, so a list is out of
        # range, and a bad vertex is named before a repeated one
        (shell_witness_violation, (d5, ShellWitness(0, ([0], [1]))),
         r"^vertex \[0\] out of range in v-sequence$"),
        (shell_witness_violation, (d5, ShellWitness(0, (1, 1, 7))),
         r"^vertex 7 out of range in v-sequence$"),
        (shell_witness_violation, (d5, ShellWitness(faces, (0, 1))),
         rf"^face {faces} out of range$"),
    ]
    for verify in (bishell_witness_violation, invariant_edge_report):
        refusals += [
            (verify, (d5, BishellWitness(0, (), ())),
             r"^a- and b-sequences must have equal length >= 1$"),
            (verify, (d5, BishellWitness(0, (0, 5), (1, 2))),
             r"^vertex 5 out of range in a-sequence$"),
            (verify, (d5, BishellWitness(0, (0, 1), (2, 2))),
             r"^duplicate vertex in b-sequence$"),
            (verify, (d5, BishellWitness(0, (0.0,), (1.0,))),
             r"^vertex 0.0 out of range in a-sequence$"),
            (verify, (d5, BishellWitness(0, (0,), ([1],))),
             r"^vertex \[1\] out of range in b-sequence$"),
        ]
    for call, args, message in refusals:
        with pytest.raises(ValueError, match=message) as caught:
            call(*args)
        assert caught.type is ValueError, call.__name__


def test_condition3_violation_reported_at_top_index():
    d6 = gen_convex(6)
    witness = BishellWitness(d6.reference_face, (0, 1), (0, 2))
    msg = bishell_witness_violation(d6, witness)
    assert msg == "condition (3) violated at i=1"


def test_shell_to_bishell_rule():
    d6 = gen_convex(6)
    shell = ShellWitness(d6.reference_face, (0, 1, 2, 3))
    assert shell_witness_violation(d6, shell) is None
    bishell = shell_to_bishell(shell)
    assert bishell.a_seq == (0, 1, 2)
    assert bishell.b_seq == (3, 2, 1)
    assert bishell_witness_violation(d6, bishell) is None

    degenerate = shell_to_bishell(ShellWitness(d6.reference_face, (0, 1)))
    assert degenerate.order == 0
    assert degenerate.a_seq == (0,) and degenerate.b_seq == (1,)


def test_truncation_chain():
    d8 = gen_convex(8)
    witness = check_s_shellable(d8, 4)
    assert witness is not None
    bishell = shell_to_bishell(witness)
    while True:
        assert bishell_witness_violation(d8, bishell) is None
        if bishell.order == 0:
            break
        bishell = truncate_bishell(bishell)
    with pytest.raises(ValueError, match=r"^cannot truncate an order-0 witness$"):
        truncate_bishell(bishell)


def test_bishell_order0_needs_two_vertices_on_a_face():
    d = gen_convex(4)
    witness = check_bishellable(d, 0)
    assert witness is not None
    assert witness.a_seq[0] != witness.b_seq[0]
    assert bishell_witness_violation(d, witness) is None


def test_check_bishellable_agrees_with_naive():
    from kncross.generators import gen_random_points
    for drawing in (gen_convex(4), gen_convex(5), gen_cylindrical(5),
                    gen_convex(6), gen_cylindrical(6),
                    gen_cylindrical(7), gen_random_points(7, 3)):
        for s in range(0, drawing.n // 2 - 1):
            fast = check_bishellable(drawing, s) is not None
            assert fast == naive_bishellable(drawing, s)


def test_is_shellable_is_bishellable_families():
    for n in (6, 7, 8):
        dc = gen_convex(n)
        assert check_s_shellable(dc) is not None
        assert check_bishellable(dc) is not None
    for n in (7, 9):
        dcyl = gen_cylindrical(n)
        assert check_s_shellable(dcyl) is not None
        assert check_bishellable(dcyl) is not None


def test_shellable_implies_hill_bound(small_corpus):
    for _name, n, drawing in small_corpus:
        if n <= 6 and check_s_shellable(drawing) is not None:
            assert drawing.crossings >= hill_number(n)


def test_bishellable_implies_lemma_bounds():
    # the paper's lemma: a bishell witness of order s at face F gives
    # E_<=<=k(D, F) >= 3*C(k+3,3) for every k <= s, checked at every face
    # with a witness of the default order
    drawings = ([gen_cylindrical(n) for n in (6, 8, 9, 10, 11, 12)]
                + [gen_convex(n) for n in (9, 10)]
                + [gen_random_points(n, seed) for n in (9, 10, 11) for seed in (1, 2, 3)]
                + [gen_random_points(12, seed) for seed in (502, 505, 511, 567, 629)])
    for d in drawings:
        n = d.n
        witnesses = [check_bishellable(d, face=face) for face in range(d.face_count)]
        # every cylindrical drawing, the only ones here without point
        # geometry, is bishellable at its reference face
        assert witnesses[d.reference_face] is not None or d.geometry is not None
        for face, witness in enumerate(witnesses):
            if witness is None:
                continue
            vec = k_edge_vector(d.with_reference(face))
            _, double = cumulative_sums(vec)
            chain = witness
            while True:
                k = chain.order
                assert double[k] >= 3 * comb(k + 3, 3), (n, face, k)
                assert double_cumulative_bound_holds(n, vec, k)
                if k == 0:
                    break
                chain = truncate_bishell(chain)


def test_sufficient_conditions():
    d8 = gen_convex(8)
    sc = sufficient_conditions(d8)
    assert sc.uncrossed_cycle_len == 8
    assert sc.implies_shellable and sc.implies_bishellable

    d10 = gen_cylindrical(10)
    sc10 = sufficient_conditions(d10)
    assert sc10.uncrossed_cycle_len >= 5
    assert sc10.implies_shellable

    # convex K6 has no crossing-free edge beyond the hull cycle
    d6 = gen_convex(6)
    sc6 = sufficient_conditions(d6)
    assert sc6.uncrossed_cycle_len == 6
    assert sc6.uncrossed_path_len == 5


def test_invariant_edge_report_bounds():
    for drawing in (gen_convex(6), gen_cylindrical(8), gen_cylindrical(9)):
        s = drawing.n // 2 - 2
        witness = check_bishellable(drawing, s)
        assert witness is not None
        report = invariant_edge_report(drawing, witness)
        assert report.order == s
        assert report.a0_contribution >= 2 * comb(s + 2, 2)
        assert report.invariant_count >= comb(s + 2, 2)


def test_invariant_edge_report_rejects_bad_witness():
    d6 = gen_convex(6)
    bad = BishellWitness(d6.reference_face, (0, 1), (0, 1))
    with pytest.raises(ValueError, match=r"^witness does not verify$"):
        invariant_edge_report(d6, bad)


def test_small_rectilinear_drawings_always_shellable():
    # hull edges of a straight-line drawing are never crossed, so the
    # hull cycle (length >= 3 >= floor(n/2) for n <= 7) forces
    # shellability for every rectilinear drawing this small
    from kncross.generators import gen_random_points
    for n in (5, 6, 7):
        for seed in range(4):
            d = gen_random_points(n, 70 + seed)
            sc = sufficient_conditions(d)
            assert sc.uncrossed_cycle_len >= 3
            assert sc.implies_shellable
            assert check_bishellable(d) is not None


def test_fixed_face_scope_restricts_search():
    d = gen_cylindrical(8)
    witness = check_bishellable(d, 2, face=d.reference_face)
    assert witness is not None and witness.face == d.reference_face
    shell = check_s_shellable(gen_convex(6), 3, face=gen_convex(6).reference_face)
    assert shell is not None


def test_search_is_deterministic():
    a = check_bishellable(gen_cylindrical(9), 2)
    b = check_bishellable(gen_cylindrical(9), 2)
    assert a == b
    c = check_s_shellable(gen_convex(8), 4)
    d = check_s_shellable(gen_convex(8), 4)
    assert c == d


# ---------------------------------------------------------------------------
# the memoised searches and incidence tables against their slow paths
# ---------------------------------------------------------------------------


ORACLE_DRAWINGS = {
    "convex6": lambda: gen_convex(6),
    "convex7": lambda: gen_convex(7),
    "cylindrical7": lambda: gen_cylindrical(7),
    "cylindrical8": lambda: gen_cylindrical(8),
    "random8": lambda: gen_random_points(8, 4),
    "random9": lambda: gen_random_points(9, 2),
}


@pytest.mark.parametrize("name", ORACLE_DRAWINGS)
def test_shell_search_matches_replay_oracle_at_every_face(name):
    d = ORACLE_DRAWINGS[name]()
    for s in (2, d.n // 2, d.n // 2 + 1):
        for f in range(d.face_count):
            assert check_s_shellable(d, s, face=f) == replay_shell_search(d, s, face=f)
        assert check_s_shellable(d, s) == replay_shell_search(d, s)


@pytest.mark.parametrize("name", ORACLE_DRAWINGS)
def test_bishell_search_matches_child_view_oracle_at_every_face(name):
    d = ORACLE_DRAWINGS[name]()
    for s in range(d.n // 2):
        for f in range(d.face_count):
            assert check_bishellable(d, s, face=f) == child_view_bishell(d, s, face=f)
        assert check_bishellable(d, s) == child_view_bishell(d, s)


@pytest.mark.parametrize("name", ORACLE_DRAWINGS)
def test_shell_witness_reversal_symmetry(name):
    # the search keeps only v_1 < v_s; that loses nothing because the
    # reverse of a witness is a witness
    d = ORACLE_DRAWINGS[name]()
    memo = {}
    for s in (2, d.n // 2, d.n // 2 + 1):
        for f in range(d.face_count):
            witness = check_s_shellable(d, s, face=f)
            if witness is None:
                continue
            assert witness.seq[0] < witness.seq[-1]
            reverse = ShellWitness(f, witness.seq[::-1])
            assert shell_witness_violation(d, reverse, memo) is None


def test_shell_refusals_match_replay_oracle():
    d = gen_random_points(10, 1)
    found = [check_s_shellable(d, 5, face=f) for f in range(d.face_count)]
    assert found == [replay_shell_search(d, 5, face=f) for f in range(d.face_count)]
    assert sum(w is None for w in found) == 183
    d = gen_random_points(12, 502)
    assert check_s_shellable(d, 6) is None
    assert replay_shell_search(d, 6) is None


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (8, 12, 16) for seed in range(1, 6)]
                         + [(11, None)])
def test_sorted_points_are_an_n_shell_witness(n, seed):
    # deleting a prefix and a suffix of the (x, y)-sorted vertices leaves
    # v_r leftmost and v_t rightmost, both on the hull: the unbounded face
    d = gen_convex(n) if seed is None else gen_random_points(n, seed)
    points = d.geometry.points
    order = tuple(sorted(range(n), key=lambda v: (points[v].x, points[v].y)))
    assert shell_witness_violation(d, ShellWitness(d.reference_face, order)) is None
    if n <= 10:
        witness = check_s_shellable(d, n, face=d.reference_face)
        assert witness is not None
        assert shell_witness_violation(d, witness) is None


def test_searches_match_oracles_on_vertexless_face():
    d6 = gen_convex(6)
    vertexless = next(f for f in range(d6.face_count)
                      if f not in vertex_faces(d6))
    for s in (2, 3, 4):
        assert check_s_shellable(d6, s, face=vertexless) is None
        assert replay_shell_search(d6, s, face=vertexless) is None
    for s in (0, 1, 2):
        assert check_bishellable(d6, s, face=vertexless) is None
        assert child_view_bishell(d6, s, face=vertexless) is None


def test_faces_fewer_than_two_vertices_touch_have_no_witness(small_corpus):
    # the searches skip these faces: a bishell witness needs a_0 != b_0
    # and a shell witness of length s >= 2 needs v_1 != v_s, all incident
    # with nothing deleted; a 1-shell witness has no pair.  At K_9 the
    # child-view oracle stops at order n - 4: orders 6 and 7 take it over
    # 20 s, and a witness of a higher order truncates to one of order 5
    drawings = [d for _name, _n, d in small_corpus] + [gen_random_points(9, 2)]
    screened = 0
    for d in drawings:
        view = DeletionView(d, 0)
        orders = range(d.n - 1) if d.n < 9 else range(d.n - 3)
        for f in range(d.face_count):
            touching = view.incident_mask(f)
            if touching & touching - 1:
                continue
            screened += 1
            for s in orders:
                assert child_view_bishell(d, s, face=f) is None, (s, f)
            for s in range(2, d.n + 1):
                assert replay_shell_search(d, s, face=f) is None, (s, f)
            assert check_s_shellable(d, 1, face=f) == ShellWitness(f, (0,))
    assert screened == 257


def test_first_shell_witness_matches_loop_over_s():
    for d in (gen_convex(7), gen_cylindrical(8), gen_random_points(9, 2)):
        looped = None
        for s in range(d.n // 2, d.n + 1):
            looped = check_s_shellable(d, s)
            if looped is not None:
                break
        assert check_s_shellable(d) == looped
        assert check_bishellable(d) == check_bishellable(d, d.n // 2 - 2)


@pytest.mark.parametrize("which", ["convex7", "random8"])
def test_incidence_mask_matches_loop(which):
    d = gen_convex(7) if which == "convex7" else gen_random_points(8, 4)
    views = {}
    for mask in range(1 << d.n):  # ascending: every subset comes first
        view = views[mask] = DeletionView(d, mask)
        assert view.deleted == mask
        deleted = frozenset(u for u in range(d.n) if mask >> u & 1)
        classes = view_classes(d, view)
        for face in range(d.face_count):
            expect = {u for u in range(d.n) if u not in deleted
                      and loop_incident(d, classes, face, u, deleted)}
            incident = view.incident_mask(face)
            assert {u for u in range(d.n) if incident >> u & 1} == expect
        # grown from each one-smaller subset, and from the view of the
        # lowest vertex alone, which lacks several vertices of a larger set;
        # a class is named by its least face, so the tables are the same
        parents = [views[mask ^ 1 << v] for v in deleted]
        parents.append(views[mask & -mask])
        for parent in parents:
            grown = DeletionView(d, mask, parent)
            assert grown.deleted == mask
            assert view_classes(d, grown) == classes
            assert ([grown.incident_mask(f) for f in range(d.face_count)]
                    == [view.incident_mask(f) for f in range(d.face_count)])


def test_incidence_mask_empty_with_one_survivor():
    d = gen_cylindrical(7)
    everyone = (1 << d.n) - 1
    for keep in range(d.n):
        view = DeletionView(d, everyone ^ 1 << keep)
        assert all(view.incident_mask(f) == 0 for f in range(d.face_count))
        # no class, named by its least face, is touched by the survivor
        assert {view.incident_mask(view.class_of(f)) for f in range(d.face_count)} == {0}


def test_deletion_view_refuses_bad_masks():
    d = gen_convex(6)
    for mask in (1 << d.n, 1 << d.n | 0b101, -1):
        with pytest.raises(ValueError):
            DeletionView(d, mask)
    with pytest.raises(ValueError) as caught:
        DeletionView(d, 1.0)
    assert (type(caught.value), str(caught.value)) == (ValueError, "deleted mask 1.0 is not an int")
    # a parent must delete a subset of the view's vertices
    with pytest.raises(ValueError):
        DeletionView(d, 0b011, DeletionView(d, 0b100))


# ---------------------------------------------------------------------------
# the peel-closure refutation and the greedy B, against their oracles
# ---------------------------------------------------------------------------


# random (seeds 1-3), convex and cylindrical K_8..K_11
MONOTONE_DRAWINGS = ([("random", n, seed) for n in range(8, 12) for seed in (1, 2, 3)]
                     + [(family, n, None) for family in ("convex", "cylindrical")
                        for n in range(8, 12)])


@functools.lru_cache(maxsize=None)
def _monotone_drawing(family, n, seed):
    if family == "random":
        return gen_random_points(n, seed)
    return gen_convex(n) if family == "convex" else gen_cylindrical(n)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(MONOTONE_DRAWINGS), st.integers(0, (1 << 11) - 1),
       st.integers(0, 10), st.integers(0, 10**4))
def test_incidence_is_monotone_under_deletion(key, deleted, pick, face):
    # u incident with the class of F in D - X stays incident in D - X - w
    # while two vertices survive: the greedy lemma rests on this
    d = _monotone_drawing(*key)
    n = d.n
    deleted &= (1 << n) - 1
    survivors = [v for v in range(n) if not deleted >> v & 1]
    assume(len(survivors) >= 3)
    w = survivors[pick % len(survivors)]
    face %= d.face_count
    before = DeletionView(d, deleted).incident_mask(face)
    after = DeletionView(d, deleted | 1 << w).incident_mask(face)
    assert before & ~(1 << w) & ~after == 0


def _peels(d, face, seq):
    """Whether every vertex of `seq` is incident once those before it are
    deleted, each on a fresh view."""
    return all(DeletionView(d, vertex_mask(seq[:i])).incident_mask(face) >> v & 1
               for i, v in enumerate(seq))


def test_shell_witness_is_a_front_and_a_back_peel():
    # v_1..v_s verifies exactly when v_1..v_{s-1} peels from the front and
    # v_s..v_2 from the back.  The prefix is drawn as a random front peel,
    # so that both answers are common.
    rng = SplitMix64(41)
    drawings = [family(n) for n in range(6, 11)
                for family in (gen_convex, gen_cylindrical,
                               lambda n: gen_random_points(n, n))]
    outcomes = set()
    for trial in range(1000):
        d = drawings[trial % len(drawings)]
        # a face at a vertex: the left face of a random dart
        u = rng.below(d.n)
        face = d.face_left_of(u, (u + 1 + rng.below(d.n - 1)) % d.n)
        s = 2 + rng.below(min(6, d.n - 1))   # 2..7, at most n
        seq = []
        for i in range(s):
            # v_s is drawn from the vertices incident with nothing deleted
            unused = [v for v in range(d.n) if v not in seq]
            incident = DeletionView(d, vertex_mask(seq if i < s - 1 else ())).incident_mask(face)
            pool = [v for v in unused if incident >> v & 1] or unused
            seq.append(pool[rng.below(len(pool))])
        peels = _peels(d, face, seq[:-1]) and _peels(d, face, seq[:0:-1])
        verifies = shell_witness_violation(d, ShellWitness(face, tuple(seq))) is None
        assert verifies == peels, (d.n, face, seq)
        outcomes.add(verifies)
    assert outcomes == {True, False}


def test_greedy_closure_is_the_longest_peel(small_corpus):
    # with a fixed banned set, peeling the lowest allowed vertex at every
    # step goes as far as the longest peel sequence
    for name, n, d in small_corpus:
        memo = {}
        for f in range(d.face_count):
            seq = next(shelling_sequences(d, f, longest_peel(d, f, 0)))
            for i in range(len(seq) + 1):
                banned = sum(1 << v for v in seq[:i])
                greedy = _greedy_peel(d, f, (banned,) * n, memo)
                assert len(greedy) == longest_peel(d, f, banned), (name, n, f, i)


# the bishell oracle pays for every b-sequence of every a-sequence, so at
# every order it only runs on drawings of up to 8 vertices
EVERY_ORDER_DRAWINGS = {
    "convex6": lambda: gen_convex(6),
    "convex7": lambda: gen_convex(7),
    "cylindrical7": lambda: gen_cylindrical(7),
    "cylindrical8": lambda: gen_cylindrical(8),
    "random7": lambda: gen_random_points(7, 3),
    "random8": lambda: gen_random_points(8, 2),
}


@pytest.mark.parametrize("name", EVERY_ORDER_DRAWINGS)
def test_searches_match_oracles_at_every_order_and_face(name):
    # peel closure holds exactly at the faces where the oracle finds a
    # witness, and the searches return the oracles' first witness
    d = EVERY_ORDER_DRAWINGS[name]()
    memo = {}
    for s in range(d.n - 1):
        for f in range(d.face_count):
            found = child_view_bishell(d, s, face=f)
            assert peel_closure_holds(d, s, f, memo) == (found is not None), (s, f)
            assert check_bishellable(d, s, face=f) == found
    for s in range(1, d.n + 1):
        for f in range(d.face_count):
            found = replay_shell_search(d, s, face=f)
            if found is not None and s >= 2:
                assert peel_closure_holds(d, s - 2, f, memo)
            assert check_s_shellable(d, s, face=f) == found


def test_peel_closure_refutes_most_faces_of_a_certify_input():
    # the 4-bishellable, not 6-shellable K_12 of seed 502: 7 of its 340
    # faces pass PC(4), and they are exactly the faces with a 4-bishell
    # witness, the first being face 0
    d = gen_random_points(12, 502)
    memo = {}
    witness_faces = [f for f in range(d.face_count)
                     if check_bishellable(d, 4, face=f) is not None]
    assert witness_faces == [0, 1, 30, 215, 228, 300, 306]
    passing = [f for f in range(d.face_count) if peel_closure_holds(d, 4, f, memo)]
    assert passing == witness_faces
    assert check_bishellable(d, 4).face == 0


def test_bishell_search_peel_tests_each_prefix_set_once(monkeypatch):
    # whether a witness runs through a prefix depends only on its set, so
    # a face search peel-tests no set twice; the one call that completes
    # B bans a different set at every step
    tested = []

    def spy(drawing, face, bans, memo):
        if len(set(bans)) == 1:
            tested.append(bans[0])
        return _greedy_peel(drawing, face, bans, memo)

    monkeypatch.setattr(shelling, "_greedy_peel", spy)
    d = gen_random_points(8, 20)
    check_bishellable(d, 6, face=79)
    assert len(tested) == len(set(tested)) == 32


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (11, 12) for seed in range(1, 5)]
                         + [(12, seed) for seed in (502, 505, 511, 567, 629)])
def test_bishell_search_matches_two_pass_search_at_every_face(n, seed):
    # pruning each a-prefix by peel closure returns the witness, or the
    # refusal, of refuting faces first and then walking every a-sequence
    d = gen_random_points(n, seed)
    for s in range(n // 2 - 2, n // 2 + 1):
        for f in range(d.face_count):
            assert check_bishellable(d, s, face=f) == two_pass_bishell(d, s, face=f), (s, f)


CERTIFY_SEEDS = (502, 505, 511, 567, 629)


def test_six_shell_refusals_build_pinned_view_counts():
    # views are deterministic, so the search's work is a count: on the
    # certify benchmark's K_12 inputs the refusals built 76, 98, 89, 72
    # and 68 views when every face ran an order-4 bishell search first
    counts = []
    for seed in CERTIFY_SEEDS:
        memo = {}
        assert shelling._shell_search(gen_random_points(12, seed), (6,), None, memo) is None
        counts.append(len(memo))
    assert counts == [60, 94, 78, 66, 47]


def test_shell_search_runs_each_pair_once(monkeypatch):
    # the six-shell refusals of the certify inputs search each pair
    # (v_1, v_s) that a face touches once; a search of every face in turn
    # starts 24, 27, 28, 22 and 19 (face, pair) searches
    searched = []

    def spy(drawing, s, face, pair, memo):
        searched.append(pair)
        return search_pair(drawing, s, face, pair, memo)

    search_pair = shelling._shell_at_pair
    monkeypatch.setattr(shelling, "_shell_at_pair", spy)
    counts = []
    for seed in CERTIFY_SEEDS:
        searched.clear()
        assert check_s_shellable(gen_random_points(12, seed), 6) is None
        assert len(set(searched)) == len(searched)
        counts.append(len(searched))
    assert counts == [13, 16, 15, 12, 12]


def test_a_deleted_vertex_reads_one_class_at_every_face_it_touches(small_corpus):
    # the pair lemma: deleting v merges all its corners, so every set that
    # deletes v reads one class, and one incident mask, at the faces v
    # touches with nothing deleted
    for _name, n, d in small_corpus:
        nothing = DeletionView(d, 0)
        for v in range(n):
            touched = [f for f in range(d.face_count) if nothing.incident_mask(f) >> v & 1]
            assert touched
            for w in range(n):   # w == v: the view of {v}
                view = DeletionView(d, 1 << v | 1 << w)
                assert len({view.class_of(f) for f in touched}) == 1, (v, w)
                assert len({view.incident_mask(f) for f in touched}) == 1, (v, w)


def test_shell_search_by_pairs_matches_the_search_of_each_face(oracle_corpus):
    # the per-face search is the slow path: the first witness in face
    # order, at every length, and over the default lengths
    for d in oracle_corpus + [gen_random_points(12, seed) for seed in CERTIFY_SEEDS]:
        firsts = [None]
        for s in range(1, d.n + 1):
            at_faces = (check_s_shellable(d, s, face=f) for f in range(d.face_count))
            firsts.append(next(filter(None, at_faces), None))
            assert check_s_shellable(d, s) == firsts[s], (d.n, s)
        default = next(filter(None, firsts[d.n // 2:]), None)
        assert check_s_shellable(d) == default


# views built by the shell search for s = 2..n, then by check_s_shellable(d),
# when every face ran an order s - 2 bishell search first
SHELL_VIEWS_WITH_BISHELL_PREPASS = {
    ("convex", 9, 0): [1, 4, 10, 17, 25, 34, 44, 55, 10],
    ("convex", 12, 0): [1, 4, 10, 17, 25, 34, 44, 55, 67, 80, 94, 25],
    ("cylindrical", 9, 0): [1, 10, 15, 7, 46, 60, 17, 20, 15],
    ("cylindrical", 12, 0): [1, 13, 25, 37, 9, 61, 79, 97, 115, 131, 149, 9],
    ("random", 10, 0): [1, 3, 6, 11, 18, 27, 36, 47, 84, 11],
    ("random", 10, 1): [1, 3, 6, 11, 18, 25, 39, 125, 72, 11],
    ("random", 10, 2): [1, 5, 8, 14, 22, 31, 41, 51, 67, 14],
    ("random", 11, 0): [1, 3, 5, 9, 17, 26, 25, 43, 46, 43, 9],
    ("random", 11, 1): [1, 4, 8, 14, 22, 30, 40, 70, 118, 133, 14],
    ("random", 11, 2): [1, 5, 8, 14, 22, 31, 43, 55, 67, 95, 14],
    ("random", 13, 0): [1, 4, 8, 14, 24, 119, 93, 99, 128, 158, 120, 83, 24],
    ("random", 13, 1): [1, 4, 8, 14, 22, 30, 40, 84, 335, 445, 223, 193, 22],
    ("random", 13, 2): [1, 4, 10, 17, 25, 33, 42, 49, 152, 232, 248, 162, 25],
}


@pytest.mark.parametrize("key", SHELL_VIEWS_WITH_BISHELL_PREPASS,
                         ids=lambda key: "-".join(map(str, key)))
def test_shell_search_builds_no_more_views_than_with_a_bishell_prepass(key):
    family, n, seed = key
    d = {"convex": lambda: gen_convex(n), "cylindrical": lambda: gen_cylindrical(n),
         "random": lambda: gen_random_points(n, seed)}[family]()
    counts = []
    for lengths in [(s,) for s in range(2, n + 1)] + [range(n // 2, n + 1)]:
        memo = {}
        shelling._shell_search(d, lengths, None, memo)
        counts.append(len(memo))
    before = SHELL_VIEWS_WITH_BISHELL_PREPASS[key]
    assert len(counts) == len(before)
    assert all(c <= b for c, b in zip(counts, before)), counts


def _answers_by_dart(drawing):
    """Per face a vertex touches, keyed by the dart that names it: the
    sequences of every bishell and shell search at that face, None for a
    refusal, the k-edge vector with that face as reference, and the
    incident mask of its class once any one or two vertices are deleted."""
    n = drawing.n
    views = [DeletionView(drawing, 1 << u | 1 << v)
             for u in range(n) for v in range(u, n)]
    answers = {}
    for face in range(drawing.face_count):
        try:
            dart = drawing.face_dart(face)
        except ValueError:
            continue
        bishells = [check_bishellable(drawing, s, face=face) for s in range(n - 1)]
        shells = [check_s_shellable(drawing, s, face=face) for s in range(1, n + 1)]
        answers[dart] = (
            [w and (w.a_seq, w.b_seq) for w in bishells],
            [w and w.seq for w in shells],
            k_edge_vector(drawing.with_reference(face)),
            [view.incident_mask(face) for view in views],
        )
    return answers


def test_triangle_flips_preserve_every_answer(small_corpus):
    # a flip moves one edge across the crossing of two others; every face
    # a vertex touches keeps its darts, and every search answer and k-edge
    # vector there stays (the triangle flip lemma in the shelling module)
    rng = SplitMix64(9)
    starts = [d for _name, _n, d in small_corpus if crossing_triangles(d)]
    starts.append(gen_random_points(9, 0))
    assert len(starts) == 7
    for drawing in starts:
        answers = _answers_by_dart(drawing)
        key = rotation_key(drawing.vertex_rotations)
        for _step in range(5):
            triangles = crossing_triangles(drawing)
            triangle = triangles[rng.below(len(triangles))]
            flipped = flip_triangle(drawing, triangle)
            blob = serialize(drawing, "map")
            assert serialize(flipped, "map") != blob
            assert triangle in crossing_triangles(flipped)
            assert serialize(flip_triangle(flipped, triangle), "map") == blob
            assert rotation_key(flipped.vertex_rotations) == key
            assert flipped.crossings == drawing.crossings
            assert flipped.face_count == drawing.face_count
            assert _answers_by_dart(flipped) == answers
            drawing = flipped
