"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Every assertion is exact; each criterion also honors its time budget.
Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time
from math import comb
from pathlib import Path

import pytest

from kncross.generators import (
    SplitMix64,
    gen_convex,
    gen_cylindrical,
    gen_random_points,
)
from kncross.kedges import (
    crossings_from_cumulative,
    crossings_from_k_edges,
    cumulative_sums,
    hill_number,
    k_edge_vector,
    k_value,
)
from kncross.shelling import (
    bishell_witness_violation,
    check_bishellable,
    check_s_shellable,
    invariant_edge_report,
    shell_to_bishell,
    shell_witness_violation,
    truncate_bishell,
)

from conftest import assert_view_matches_replanarization, loop_k4_census
from test_shelling import naive_bishellable

_H_TABLE = {5: 1, 6: 3, 7: 9, 8: 18, 9: 36, 10: 60, 11: 100, 12: 150}

# witnesses found by criteria 7 and 8, consumed by criterion 11
_WITNESS_STASH = []


def _report(number: int, elapsed: float, budget: float, detail: str) -> None:
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"PASS criterion {number:2d}: {detail} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def cylindrical_family():
    return {n: gen_cylindrical(n) for n in range(4, 13)}


@pytest.fixture(scope="module")
def convex_family():
    return {n: gen_convex(n) for n in range(4, 11)}


@pytest.fixture(scope="module")
def random_family():
    drawings = []
    for n in (5, 6, 7, 8, 9):
        for seed in range(100):
            drawings.append(gen_random_points(n, 1000 * n + seed))
    return drawings


def test_criterion_01_hill_table():
    start = time.time()
    for n, expected in _H_TABLE.items():
        assert hill_number(n) == expected
    _report(1, time.time() - start, 0.001,
            "H(n) table matches for n=5..12, incl. 36/100/150")


def test_criterion_02_cylindrical_counts(cylindrical_family):
    start = time.time()
    for n in range(4, 13):
        assert cylindrical_family[n].crossings == hill_number(n), n
    _report(2, time.time() - start, 10.0,
            "cylindrical crossing counts equal H(n) for 4<=n<=12")


def test_criterion_03_convex_counts(convex_family):
    start = time.time()
    for n in range(4, 11):
        assert convex_family[n].crossings == comb(n, 4), n
    _report(3, time.time() - start, 5.0,
            "convex crossing counts equal C(n,4) for 4<=n<=10")


def test_criterion_04_crossing_identities(cylindrical_family, convex_family,
                                          random_family):
    start = time.time()
    corpus = (list(cylindrical_family.values())
              + list(convex_family.values()) + random_family)
    for drawing in corpus:
        cr = drawing.crossings
        vector = k_edge_vector(drawing)
        assert crossings_from_k_edges(drawing.n, vector) == cr
        assert crossings_from_cumulative(drawing.n, vector) == cr
        planar, crossed = loop_k4_census(drawing)
        n = drawing.n
        weighted = sum(k * (n - 2 - k) * ek for k, ek in enumerate(vector))
        assert 3 * planar + 2 * crossed == weighted
    _report(4, time.time() - start, 60.0,
            f"both crossing identities and 3P+2N on {len(corpus)} drawings")


def test_criterion_05_k4_appendix_cases():
    start = time.time()
    from conftest import planar_k4
    planar = planar_k4()
    assert k_edge_vector(planar) == (3, 3)
    crossed = gen_convex(4)
    vectors = [k_edge_vector(crossed.with_reference(f))
               for f in range(crossed.face_count)]
    outer = k_edge_vector(crossed)
    assert outer == (4, 2)
    assert all(v == (4, 2) for v in vectors)
    _report(5, time.time() - start, 5.0,
            "K4 face cases give [3,3] / [4,2] / [4,2]")


def test_criterion_06_zero_edge_observation(cylindrical_family, convex_family,
                                            random_family):
    start = time.time()
    corpus = (list(cylindrical_family.values())
              + list(convex_family.values()) + random_family)
    checked = 0
    for drawing in corpus:
        ref = drawing.reference_face
        for eid, faces in enumerate(drawing.dart_faces):
            if ref in faces:
                assert k_value(drawing, drawing.edges[eid]) == 0
                checked += 1
    _report(6, time.time() - start, 60.0,
            f"{checked} reference-face edges are all 0-edges")


def test_criterion_07_shellability_chain(convex_family):
    start = time.time()
    for n in range(4, 11):
        drawing = convex_family[n]
        witness = check_s_shellable(drawing, n // 2)
        assert witness is not None, f"no shell witness for convex K{n}"
        assert shell_witness_violation(drawing, witness) is None
        bishell = shell_to_bishell(witness)
        assert bishell_witness_violation(drawing, bishell) is None
        _WITNESS_STASH.append((drawing, bishell))
        chain = bishell
        while chain.order > 0:
            chain = truncate_bishell(chain)
            assert bishell_witness_violation(drawing, chain) is None
            _WITNESS_STASH.append((drawing, chain))
    _report(7, time.time() - start, 120.0,
            "convex shell witnesses at s=floor(n/2), transforms verify")


def test_criterion_08_bishellability_and_bounds(cylindrical_family):
    start = time.time()
    for n in range(4, 12):
        drawing = cylindrical_family[n]
        s = n // 2 - 2
        witness = check_bishellable(drawing, s)
        assert witness is not None, f"cylindrical K{n} not bishellable"
        assert bishell_witness_violation(drawing, witness) is None
        _WITNESS_STASH.append((drawing, witness))
        _, sums = cumulative_sums(k_edge_vector(drawing))
        for k in range(s + 1):
            assert sums[k] >= 3 * comb(k + 3, 3), (n, k)
        assert drawing.crossings >= hill_number(n)
    _report(8, time.time() - start, 600.0,
            "cylindrical drawings bishellable for n<=11; bounds hold")


def test_criterion_09_deletion_oracle(small_corpus):
    start = time.time()
    eligible = [(name, n, d) for name, n, d in small_corpus if n <= 7]
    rng = SplitMix64(2024)
    for _name, _n, drawing in eligible:
        assert_view_matches_replanarization(drawing, set())
    for i in range(200):
        _name, n, drawing = eligible[i % len(eligible)]
        size = rng.below(n - 2)          # keep at least 3 survivors
        deleted = set()
        while len(deleted) < size:
            deleted.add(rng.below(n))
        assert_view_matches_replanarization(drawing, deleted)
    _report(9, time.time() - start, 120.0,
            "deletion views match fresh replanarization (200 random sets)")


def test_criterion_10_bruteforce_equivalence(small_corpus):
    start = time.time()
    checked = 0
    for _name, n, drawing in small_corpus:
        if n > 6:
            continue
        for s in range(0, n // 2 - 1):
            fast = check_bishellable(drawing, s) is not None
            assert fast == naive_bishellable(drawing, s), (n, s)
            checked += 1
    assert checked > 0
    _report(10, time.time() - start, 120.0,
            f"search agrees with naive enumeration on {checked} (drawing,s) cases")


def test_criterion_11_invariant_edge_diagnostics():
    start = time.time()
    assert _WITNESS_STASH, "criteria 7 and 8 must run first"
    for drawing, witness in _WITNESS_STASH:
        report = invariant_edge_report(drawing, witness)
        k = witness.order
        assert report.a0_contribution >= 2 * comb(k + 2, 2)
        assert report.invariant_count >= comb(k + 2, 2)
    _report(11, time.time() - start, 120.0,
            f"proof-accounting bounds hold for {len(_WITNESS_STASH)} witnesses")


def test_criterion_12_out_of_scope_documented():
    start = time.time()
    # Not reproducible at desk scale, by design: the specific published
    # figure drawings (no image data), the uniqueness claim for the
    # non-bishellable optimal K9, and the K11 census counts.  These are
    # covered by the property suites above and by the exploratory `hunt`
    # command, which never claims exhaustiveness.  README's Scope says so.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    scope = " ".join(readme.split("\n## Scope\n", 1)[1].split("\n## ", 1)[0].split())
    for phrase in ("Not reproduced", "figure drawings", "uniqueness", "optimal K_9",
                   "census of the K_11 drawings", "`hunt`", "never claims exhaustiveness"):
        assert phrase in scope, phrase
    _report(12, time.time() - start, 1.0,
            "out-of-scope items documented; property suites cover the rest")
