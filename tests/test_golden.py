"""Golden pins: serialized bytes, search witnesses and seeded output.

The hashes were recorded on the exact-`Fraction` planarization; any
change to planarization, map assembly or serialization that alters a
single byte of these files fails here.  The witnesses pin the
deterministic search order of the shell and bishell searches.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kncross.cli import main
from kncross.generators import (gen_convex, gen_cylindrical, gen_random_points, gen_twopage,
                                twopage_all_top)
from kncross.io import serialize, serialize_witness, svg_document
from kncross.shelling import (BishellWitness, ShellWitness, bishell_witness_violation,
                              check_bishellable, check_s_shellable)

from conftest import shuffled_twopage_spec

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = [
    (gen_random_points, (7, 1), "map",
     "742519fe404aa6131d3a98ab8d7dad7b041b7749a5c8ed8a6dac139dd76865bf"),
    (gen_random_points, (7, 1), "points",
     "690069aad5941847cceeae12a73d0c203d2788b34d218ab1efe6ce4aae748903"),
    (gen_random_points, (10, 3), "map",
     "9866dcc8efbc3b20d16156b28773f3e65d443e94a9e2ee2693a6e85555aca1db"),
    (gen_random_points, (10, 3), "points",
     "ff7c9782b011d7fc5ef7208d74314c9e6564a5664e9a2cdc50906d3c0fcd51e5"),
    (gen_random_points, (12, 5), "map",
     "1390292a23b24bb455a81489faedbcedf32921b0e62ee5df30e9dd25d49d62a6"),
    (gen_random_points, (12, 5), "points",
     "635d0727eeff4fafdf1c45375a0ec3c1328be3fed5f6c2536b68200a6a4e0da1"),
    (gen_random_points, (14, 2), "map",
     "62c6c46c2ff0e7b007d4e1c480a287b870c88eb33cff73526c70f6e91f38679c"),
    (gen_random_points, (14, 2), "points",
     "9e8fce53f311f14bec826e74a19b3ff88f79293402eb77e2f248684f73157aeb"),
    (gen_convex, (6,), "map",
     "263623ed627fae806b6326293fb9f62ee4a9d40f5da59f9002e149d0b699af5f"),
    (gen_convex, (6,), "points",
     "da5b9643033ffccf6efeaa2a3c751fece6cf48a609b32fc0323a8530f8bb3fd2"),
    (gen_convex, (9,), "map",
     "67d4711bd85f2bcbab84a5717b3bfa294b3c641d0b2ea760012601fa4ae65edb"),
    (gen_convex, (9,), "points",
     "2877a9a68bdc50d6b7dbc3b07280ea95de17fb2a4f1310f705284f407d99658c"),
    (gen_convex, (12,), "map",
     "c0b70db4f1f22dbe8a6542b098dde02356e9f9c9d334e3ebef9c41d1890a22ef"),
    (gen_convex, (12,), "points",
     "7d53755a9b0a24a7362893b54c491d3f19e1f12dff16f886363e13e294dc68f6"),
    # the first perturbation retry: 674-bit integer coordinates after
    # scaling, so every signed area is a big integer
    (gen_convex, (24,), "map",
     "57e5f825238bb41a1610384d78b6db2f8ef771c3d1c1e09ceeae5027eaa1005e"),
    (gen_convex, (24,), "points",
     "d3027c459ccc6e935f6169d22d24923b1f234b5914c60ae85d43a32334da79c9"),
    # a cylindrical drawing has no point coordinates, so only its map
    (gen_cylindrical, (9,), "map",
     "8b3285afcad4742bb1f07726a430f7fa49c5ec07d41c9b6cc337f4e0be48badf"),
    # lids of 6 and 8 vertices: their chord crossing orders depend on the
    # lid parameters, not on the cyclic order alone as at K_9
    (gen_cylindrical, (12,), "map",
     "d00e074636ad4c403dd8fe3ca3d82e900f4572bf2812b17ce5fb36036d2d9a5d"),
    (gen_cylindrical, (16,), "map",
     "7b83a82cbc5e22d0560b303709b0ca5f809f05d317ae3ed175517e2735e954cf"),
]


@pytest.mark.parametrize(
    "gen, args, fmt, digest", GOLDEN,
    ids=[f"{gen.__name__}{args}-{fmt}" for gen, args, fmt, _ in GOLDEN])
def test_serialized_bytes_pinned(gen, args, fmt, digest):
    blob = serialize(gen(*args), fmt)
    assert hashlib.sha256(blob).hexdigest() == digest


# the SVG of a drawing, re-recorded when cylindrical drawings came to be
# drawn as a Tutte layout of their map; the same under Python 3.11 and 3.13
SVG_GOLDEN = {
    12: "6a25b993f5d316daf3dc8bf535b720307ac53c2724c9d7962d6f2905714ba635",
    16: "e1a8b94cd5cef749788d648c098a6a753d7fc1e20c19f3f22ed3147176197aff",
}


@pytest.mark.parametrize("n", sorted(SVG_GOLDEN))
def test_cylindrical_svg_pinned(n):
    svg = svg_document(gen_cylindrical(n)).encode("utf-8")
    assert hashlib.sha256(svg).hexdigest() == SVG_GOLDEN[n]


def _svg_corpus(cylindrical):
    """The 184 drawings of every family with a picture, or the 170 without
    the cylindrical ones."""
    return ([gen_convex(n) for n in range(3, 15)]
            + ([gen_cylindrical(n) for n in range(3, 17)] if cylindrical else [])
            + [gen_random_points(n, seed) for n in range(3, 13) for seed in (1, 2, 3)]
            + [gen_twopage(shuffled_twopage_spec(seed)) for seed in range(120)]
            + [gen_twopage(twopage_all_top(n)) for n in range(3, 11)])


def _corpus_digest(drawings):
    digest = hashlib.sha256()
    for d in drawings:
        digest.update(svg_document(d).encode("utf-8"))
    return digest.hexdigest()


# one sha256 over the SVG of the 184 drawings, re-recorded with the
# cylindrical pins above
SVG_CORPUS_DIGEST = "8b9d5c18cb79e9f1813b477ebc1deb269d47c8dd77f53751c7a40a60396f66d6"


def test_svg_corpus_pinned():
    drawings = _svg_corpus(cylindrical=True)
    assert len(drawings) == 184
    assert _corpus_digest(drawings) == SVG_CORPUS_DIGEST


# one sha256 over the SVG of the 170 convex, random and two-page drawings,
# recorded before the cylindrical lid chords were redrawn
SVG_NONCYLINDRICAL_DIGEST = "63810de07016b20b5ed820ccb1000f240165759b530b8d2364fe1c0baa637169"


def test_noncylindrical_svg_corpus_pinned():
    drawings = _svg_corpus(cylindrical=False)
    assert len(drawings) == 170
    assert _corpus_digest(drawings) == SVG_NONCYLINDRICAL_DIGEST


def test_hunt_output_pinned(capsys):
    rc = main(["hunt", "--n", "7", "--trials", "100", "--seed", "100",
               "--target", "optimal"])
    assert rc == 0
    assert capsys.readouterr().out == "trials=100 distinct=37 matches=1\n  seed=113 cr=9\n"


# `hunt` stdout at the other window starts of the benchmark, recorded
# before the arrangement was decided by one signed area per point triple
@pytest.mark.parametrize("seed, distinct", [(0, 41), (200, 42), (300, 45), (400, 47)])
def test_hunt_output_pinned_at_benchmark_windows(capsys, seed, distinct):
    rc = main(["hunt", "--n", "7", "--trials", "100", "--seed", str(seed)])
    assert rc == 0
    assert capsys.readouterr().out == f"trials=100 distinct={distinct} matches=0\n"


# `hunt` stdout at a smaller and a larger n, recorded before the rotation
# key filtered its anchors and the arrangement sorted by integer keys
@pytest.mark.parametrize("n, seed, out", [
    (6, 100, "trials=100 distinct=12 matches=1\n  seed=113 cr=3\n"),
    (9, 3, "trials=100 distinct=98 matches=0\n"),
], ids=["n6", "n9"])
def test_hunt_output_pinned_at_other_n(capsys, n, seed, out):
    rc = main(["hunt", "--n", str(n), "--trials", "100", "--seed", str(seed)])
    assert rc == 0
    assert capsys.readouterr().out == out


# `analyze` stdout on the map files of gen_random_points(14, seed), recorded
# before map assembly moved to one out-dart table and the K4 census to
# one pass over the crossings
ANALYZE_STDOUT = {
    1: ("f7cdfd8fe26146826110e29d1a90d1ad9a9c46bbebe2011c4bf0e764084ad9aa",
        "2c0b706220ebcd9a71e14c9efe042942dca9436f54041aaad4c33785521a4430"),
    2: ("db41e8499de111355f95727cda1bff67dbfaa2da4f4bcbf71ac7052685c25074",
        "12525886903a5cb023094bf72e312f91489675f44a4fe5a11d1b2568bd6f0fa7"),
    3: ("62f21cc1b5df19f05a368906218d056b7dcb793ef3adf747757843a0a94721a5",
        "c7df7d06c51e25df25972602c41ff6405b87641bed3e1e6ea00e446adac660df"),
    4: ("7df32101a113cde343099923db9f64b8b0a2d879517d9991b1660633e01f7944",
        "4a57cf036aa07d51c2ee27d0123368f86c8285f887f864793c2cd2102319dfdc"),
    5: ("05f1b2198104e13218b4789a81b970d3baf0a61db1ac88509be611839485ae86",
        "0aff6d45f4c4dcd22e8b58bfb1ec0fe6f614437ca6b1526f9155a0207d9acab9"),
    6: ("1ff3312b69fa4601523c2b33d524a306b5c9f029ac55a9a8392e21210a4ac270",
        "c9f76f505afa58df5afb3e79fb53dadf31b0d44e38307ba670c939f3d2f4442c"),
}


@pytest.mark.parametrize("seed", sorted(ANALYZE_STDOUT))
def test_analyze_stdout_pinned(tmp_path, capsys, seed):
    path = tmp_path / f"k14-{seed}.map"
    path.write_bytes(serialize(gen_random_points(14, seed), "map"))
    for extra, digest in zip((["--json"], []), ANALYZE_STDOUT[seed]):
        assert main(["analyze", str(path)] + extra) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# shell and bishell witnesses, recorded on the search that rebuilt a
# deletion view per node and replayed pair decidability per candidate
# ---------------------------------------------------------------------------

# K_12 drawings that are 4-bishellable but not 6-shellable
CERTIFY_WITNESSES = [
    (502, b"kncross-witness v1\nbishell\nface 0 3\na: 0 1 3 2 4\nb: 5 8 9 2 1\n"),
    (505, b"kncross-witness v1\nbishell\nface 2 0\na: 2 1 5 6 0\nb: 3 0 8 5 1\n"),
    (511, b"kncross-witness v1\nbishell\nface 4 9\na: 4 2 6 0 1\nb: 9 3 0 7 2\n"),
    (567, b"kncross-witness v1\nbishell\nface 2 3\na: 2 4 1 6 7\nb: 3 0 7 8 4\n"),
    (629, b"kncross-witness v1\nbishell\nface 2 9\na: 2 3 10 8 0\nb: 9 5 4 7 3\n"),
]


@pytest.mark.parametrize("seed, blob", CERTIFY_WITNESSES,
                         ids=[str(seed) for seed, _ in CERTIFY_WITNESSES])
def test_certify_witnesses_pinned(seed, blob):
    d = gen_random_points(12, seed)
    assert serialize_witness(d, check_bishellable(d, 4)) == blob
    assert check_s_shellable(d, 6) is None


def test_convex_shell_witness_pinned():
    assert check_s_shellable(gen_convex(8), 4) == ShellWitness(face=0, seq=(0, 2, 3, 1))


CYLINDRICAL_WITNESSES = {
    9: BishellWitness(face=0, a_seq=(0, 4, 3), b_seq=(1, 2, 3)),
    10: BishellWitness(face=0, a_seq=(0, 4, 3, 2), b_seq=(1, 2, 3, 4)),
    11: BishellWitness(face=0, a_seq=(0, 5, 4, 3), b_seq=(1, 2, 3, 4)),
}


@pytest.mark.parametrize("n", sorted(CYLINDRICAL_WITNESSES))
def test_cylindrical_bishell_witness_pinned(n):
    assert check_bishellable(gen_cylindrical(n), n // 2 - 2) == CYLINDRICAL_WITNESSES[n]


def test_random_k16_bishell_witness_pinned():
    # recorded on the search that tried every b-sequence at every face; on
    # a 2-core x86_64 machine that search took 3 s and the one that refutes
    # faces by peel closure 0.15 s, so the time bound catches a fall back
    d = gen_random_points(16, 1)
    start = time.perf_counter()
    witness = check_bishellable(d, 6)
    elapsed = time.perf_counter() - start
    assert witness == BishellWitness(face=566, a_seq=(1, 3, 6, 7, 8, 0, 9),
                                     b_seq=(2, 10, 13, 8, 7, 6, 3))
    assert elapsed < 1.5


# witness-face pins beyond the paper's order: recorded on the search that
# walked every a-sequence of a face after refuting faces by peel closure;
# on a 2-core x86_64 machine that search took 13 s and 1.9 s, the one that
# prunes each a-prefix by peel closure 0.02 s and 0.03 s
WITNESS_FACE_PINS = [
    (16, 10, BishellWitness(face=566, a_seq=(1, 3, 6, 8, 0, 9, 7, 10, 11, 4, 13),
                            b_seq=(2, 13, 15, 5, 10, 7, 4, 11, 8, 6, 3))),
    (20, 8, BishellWitness(face=1288, a_seq=(1, 3, 6, 7, 8, 0, 9, 10, 15),
                           b_seq=(2, 15, 10, 17, 18, 8, 7, 4, 3))),
]


@pytest.mark.parametrize("n, s, pinned", WITNESS_FACE_PINS,
                         ids=[f"K{n}-order{s}" for n, s, _ in WITNESS_FACE_PINS])
def test_witness_face_bishell_witness_pinned(n, s, pinned):
    d = gen_random_points(n, 1)
    start = time.perf_counter()
    witness = check_bishellable(d, s)
    elapsed = time.perf_counter() - start
    assert witness == pinned
    assert bishell_witness_violation(d, witness) is None
    assert elapsed < 1.0


# one sha256 over the answers of 42,149 searches on 37 drawings: the
# bishell search at every face and order, the shell search at every
# length and the first shell witness; recorded on the search that
# returned None when the greedy b-sequence of an a-sequence fell short
SEARCH_CORPUS_DIGEST = "79fec62379bdbe9f673316a9c080dc7a419ad533806cd67aa235d0c125e82331"


def test_search_answers_corpus_pinned():
    drawings = ([gen_convex(n) for n in range(5, 10)]
                + [gen_cylindrical(n) for n in range(5, 11)]
                + [gen_random_points(n, seed) for n in range(5, 12) for seed in (1, 2, 3)]
                + [gen_random_points(12, seed) for seed, _ in CERTIFY_WITNESSES])
    digest = hashlib.sha256()
    for d in drawings:
        answers = [check_bishellable(d, s, face=f)
                   for s in range(d.n - 1) for f in range(d.face_count)]
        answers += [check_s_shellable(d, s) for s in range(1, d.n + 1)]
        answers.append(check_s_shellable(d))
        for answer in answers:
            digest.update(repr(answer).encode())
    assert digest.hexdigest() == SEARCH_CORPUS_DIGEST


DEMO_02_STDOUT = """\
convex K8: searching a shell witness of length floor(n/2) = 4
  found: ShellWitness(face=0, seq=(0, 2, 3, 1)) verifies: True
  transformed to order 2 bishell witness: BishellWitness(face=0, a_seq=(0, 2, 3), b_seq=(1, 3, 2))
  verifies: True
  truncated to order 1: verifies True
  truncated to order 0: verifies True

cylindrical drawings are bishellable; the k-edge bounds follow:
  K9: witness a=(0, 4, 3) b=(1, 2, 3) E<=<= [3, 12, 30] >= [3, 12, 30] cr=36 >= H=36
  K10: witness a=(0, 4, 3, 2) b=(1, 2, 3, 4) E<=<= [3, 12, 30, 60] >= [3, 12, 30, 60] cr=60 >= H=60
  K11: witness a=(0, 5, 4, 3) b=(1, 2, 3, 4) E<=<= [3, 12, 30, 60] >= [3, 12, 30, 60] cr=100 >= H=100

proof-accounting diagnostics for the K11 witness:
  a0 contribution 20 >= 20; invariant edges 16 >= 10

sufficient conditions from uncrossed subgraphs:
  convex K8: longest uncrossed cycle 8, path 7 -> shellable=True, bishellable=True
  cylindrical K10: longest uncrossed cycle 5, path 4 -> shellable=True, bishellable=True
"""


def test_demo_02_output_pinned(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, str(ROOT / "demos" / "02_shellability.py")],
                            cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == DEMO_02_STDOUT
