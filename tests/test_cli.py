import itertools
import json
import os
import random
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest

from kncross import planarize
from kncross.cli import main
from kncross.drawing import build_drawing
from kncross.generators import (TwoPageSpec, gen_convex, gen_cylindrical, gen_random_points,
                                gen_twopage, twopage_all_top)
from kncross.io import parse, serialize, svg_document

from conftest import vertex_faces

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_and_analyze_cylindrical(tmp_path, capsys):
    out = tmp_path / "k11.map"
    code, stdout, _ = run(capsys, "generate", "cylindrical", "--n", "11",
                          "-o", str(out))
    assert code == 0
    assert "cr=100 H=100" in stdout
    code, stdout, _ = run(capsys, "analyze", str(out))
    assert code == 0
    assert "identity PASS" in stdout
    assert "cr=100" in stdout


def test_analyze_json(tmp_path, capsys):
    out = tmp_path / "k5.pts"
    run(capsys, "generate", "convex", "--n", "5", "-o", str(out))
    code, stdout, _ = run(capsys, "analyze", str(out), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["crossings"] == 5
    assert payload["k_edge_vector"] == [5, 5]
    assert payload["identity_pass"] is True
    assert payload["k4_crossed"] == 5


# map file of the planar K4; reference face is the outer triangle
PLANAR_K4_MAP = (
    "kncross v1\nformat map\nn 4\nc 0\n"
    "rot 0 : 1 3 2\nrot 1 : 2 3 0\nrot 2 : 0 3 1\nrot 3 : 2 0 1\n"
    "e 0 1 :\ne 0 2 :\ne 0 3 :\ne 1 2 :\ne 1 3 :\ne 2 3 :\n"
    "ref 1 0\n")


def test_analyze_planar_k4_values(tmp_path, capsys):
    path = tmp_path / "k4.map"
    path.write_text(PLANAR_K4_MAP)
    code, stdout, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "cr=0" in stdout and "H=0" in stdout and "E=[3,3]" in stdout
    assert "identity PASS" in stdout


@pytest.mark.parametrize("old, new, reason", [
    ("\nc 0\n", "\nc -7\n", "line 4: negative crossing count -7"),
    ("\nn 4\n", "\nn -4\n", "line 3: negative vertex count -4"),
], ids=["c", "n"])
def test_negative_header_counts_exit_2(tmp_path, capsys, old, new, reason):
    path = tmp_path / "k4.map"
    path.write_text(PLANAR_K4_MAP.replace(old, new))
    assert run(capsys, "analyze", str(path)) == (2, "", f"error: {reason}\n")


def test_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.pts"
    path.write_text("kncross v1\nformat points\nn 3\nv 0 oops 1/1\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "error" in err


def test_exponent_coordinate_exit_2_at_once(tmp_path, capsys):
    # `Fraction` would expand 10**10000000 before any check could run
    path = tmp_path / "k4.pts"
    path.write_text("kncross v1\nformat points\nn 4\nv 0 0/1 0/1\n"
                    "v 1 1e10000000 0/1\nv 2 0/1 1/1\nv 3 1/1 1/1\n")
    start = time.perf_counter()
    code, stdout, err = run(capsys, "analyze", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, stdout) == (2, "")
    assert err == "error: line 5: bad rational '1e10000000'\n"


# K4 map in which the adjacent edges 0-1 and 0-2 cross: a coherent
# sphere map, but not a good drawing
ADJACENT_CROSS_K4 = (
    "kncross v1\nformat map\nn 4\nc 1\n"
    "rot 0 : 1 2 3\nrot 1 : 0 2 3\nrot 2 : 0 3 1\nrot 3 : 0 1 2\n"
    "e 0 1 : 0\ne 0 2 : 0\ne 0 3 :\ne 1 2 :\ne 1 3 :\ne 2 3 :\n"
    "x 0 : -\nref 0 1\n")


@pytest.mark.parametrize("argv", [
    ("analyze",),
    ("check", "--mode", "shell"),
    ("check", "--mode", "bishell", "--s", "0"),
    ("verify", "--witness", "{witness}"),
])
def test_non_good_map_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "adjacent.map"
    path.write_text(ADJACENT_CROSS_K4)
    # the shell witness a search found on this map before goodness was
    # checked at construction
    witness = tmp_path / "k4.wit"
    witness.write_text("kncross-witness v1\nshell\nface 0 3\nv: 0 2\n")
    args = [a.format(witness=witness) for a in argv]
    code, stdout, err = run(capsys, args[0], str(path), *args[1:])
    assert code == 2
    assert "adjacent_cross" in err
    assert stdout == ""


def test_check_and_verify_round_trip(tmp_path, capsys):
    drawing = tmp_path / "k8.pts"
    run(capsys, "generate", "convex", "--n", "8", "-o", str(drawing))
    witness = tmp_path / "k8.wit"
    code, stdout, _ = run(capsys, "check", str(drawing), "--mode", "bishell",
                          "--witness-out", str(witness))
    assert code == 0
    assert "bishell" in stdout
    code, stdout, _ = run(capsys, "verify", str(drawing),
                          "--witness", str(witness))
    assert code == 0
    assert "verifies" in stdout


def test_check_unwritable_witness_out_exit_2_before_printing(tmp_path, capsys):
    drawing = tmp_path / "k6.pts"
    run(capsys, "generate", "convex", "--n", "6", "-o", str(drawing))
    witness = tmp_path / "missing" / "k6.wit"
    code, stdout, err = run(capsys, "check", str(drawing), "--mode", "bishell",
                            "--witness-out", str(witness))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ")
    assert not witness.exists()


def test_check_shell_with_explicit_s(tmp_path, capsys):
    drawing = tmp_path / "k8.pts"
    run(capsys, "generate", "convex", "--n", "8", "-o", str(drawing))
    code, stdout, _ = run(capsys, "check", str(drawing), "--mode", "shell",
                          "--s", "4")
    assert code == 0
    assert "shell" in stdout


def test_check_negative_answer_exit_1_writes_no_witness(tmp_path, capsys):
    # a K_12 map that is 4-bishellable but not 6-shellable
    drawing = tmp_path / "k12.map"
    drawing.write_bytes(serialize(gen_random_points(12, 502), "map"))
    witness = tmp_path / "w"
    code, stdout, _ = run(capsys, "check", str(drawing), "--mode", "shell",
                          "--s", "6", "--witness-out", str(witness))
    assert code == 1
    assert stdout == "no witness (exhaustive search)\n"
    assert not witness.exists()


@pytest.mark.parametrize("n, argv", [
    (5, ("--mode", "shell", "--s", "6")),
    (5, ("--mode", "bishell", "--s", "4")),
    (3, ("--mode", "bishell")),  # default order n // 2 - 2 = -1
], ids=["shell-s6", "bishell-s4", "bishell-default-k3"])
def test_check_s_out_of_range_exit_2(tmp_path, capsys, n, argv):
    drawing = tmp_path / f"k{n}.pts"
    run(capsys, "generate", "convex", "--n", str(n), "-o", str(drawing))
    code, stdout, err = run(capsys, "check", str(drawing), *argv)
    assert code == 2
    assert stdout == ""
    assert "out of range" in err


def test_check_bishell_k3_names_the_default_order(tmp_path, capsys):
    drawing = tmp_path / "c3.map"
    run(capsys, "generate", "cylindrical", "--n", "3", "-o", str(drawing))
    code, stdout, err = run(capsys, "check", str(drawing), "--mode", "bishell")
    assert (code, stdout) == (2, "")
    assert err == "error: default order s=floor(n/2)-2=-1 out of range for n=3\n"


def test_verify_rejects_bad_witness(tmp_path, capsys):
    drawing = tmp_path / "k6.pts"
    run(capsys, "generate", "convex", "--n", "6", "-o", str(drawing))
    witness = tmp_path / "bad.wit"
    witness.write_text(
        "kncross-witness v1\nbishell\nface 0 5\na: 0 1\nb: 0 2\n")
    code, stdout, _ = run(capsys, "verify", str(drawing),
                          "--witness", str(witness))
    assert code == 1
    assert "condition (3)" in stdout


def test_verify_witness_vertex_out_of_range_exit_2(tmp_path, capsys):
    drawing = tmp_path / "k6.pts"
    run(capsys, "generate", "convex", "--n", "6", "-o", str(drawing))
    witness = tmp_path / "oob.wit"
    witness.write_text(
        "kncross-witness v1\nbishell\nface 0 5\na: 0 6\nb: 1 2\n")
    code, _, err = run(capsys, "verify", str(drawing),
                       "--witness", str(witness))
    assert code == 2


@pytest.mark.parametrize("face", [("2", "2"), ("0", "6")], ids=["loop", "out-of-range"])
def test_check_bad_face_dart_exit_2(tmp_path, capsys, face):
    drawing = tmp_path / "k6.pts"
    run(capsys, "generate", "convex", "--n", "6", "-o", str(drawing))
    code, stdout, err = run(capsys, "check", str(drawing), "--mode", "bishell", "--face", *face)
    assert (code, stdout) == (2, "")
    assert err == f"error: bad face dart ({face[0]},{face[1]})\n"


def test_generate_random_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.pts", tmp_path / "b.pts"
    run(capsys, "generate", "random", "--n", "5", "--seed", "7", "-o", str(a))
    run(capsys, "generate", "random", "--n", "5", "--seed", "7", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_hunt_reports_and_exit_zero(tmp_path, capsys):
    code, stdout, _ = run(capsys, "hunt", "--n", "5", "--trials", "12",
                          "--seed", "3", "--target", "optimal")
    assert code == 0
    assert "matches=" in stdout
    # h(5)=1 is reachable rectilinearly, so a dozen trials usually find it

    # optimal is the only target: every rectilinear drawing is bishellable
    with pytest.raises(SystemExit) as exited:
        main(["hunt", "--n", "4", "--trials", "6", "--target", "non-bishellable"])
    assert exited.value.code == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert "argument --target: invalid choice" in stderr and "non-bishellable" in stderr


def test_hunt_builds_a_map_only_for_a_match(tmp_path, capsys):
    # every trial is classified off its arrangement; the one match of
    # this window (seed 113, pinned in test_golden) is the only map built
    built = []

    def spy(*args, **kwargs):
        built.append(kwargs["geometry"].points)
        return build_drawing(*args, **kwargs)

    found = tmp_path / "hunt.points"
    with mock.patch.object(planarize, "build_drawing", spy):
        code, stdout, _ = run(capsys, "hunt", "--n", "7", "--trials", "100",
                              "--seed", "100", "-o", str(found))
    assert code == 0
    assert stdout.endswith("matches=1\n  seed=113 cr=9\n")
    assert built == [gen_random_points(7, 113).geometry.points]
    generated = tmp_path / "generated.points"
    run(capsys, "generate", "random", "--n", "7", "--seed", "113",
        "-o", str(generated))
    assert found.read_bytes() == generated.read_bytes()


def test_hunt_without_out_builds_no_map(capsys):
    # the same window as above: without -o the match is printed, not built
    built = []

    def spy(*args, **kwargs):
        built.append(kwargs["geometry"].points)
        return build_drawing(*args, **kwargs)

    with mock.patch.object(planarize, "build_drawing", spy):
        code, stdout, _ = run(capsys, "hunt", "--n", "7", "--trials", "100",
                              "--seed", "100")
    assert code == 0
    assert stdout.endswith("matches=1\n  seed=113 cr=9\n")
    assert built == []


def test_hunt_unwritable_out_exit_2_before_printing(tmp_path, capsys):
    # the window of `test_hunt_builds_a_map_only_for_a_match`, which matches
    found = tmp_path / "missing" / "hunt.points"
    code, stdout, err = run(capsys, "hunt", "--n", "7", "--trials", "100",
                            "--seed", "100", "-o", str(found))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ")
    assert not found.exists()


# a write that fails part way: the child may write files of at most 16
# bytes, and Python ignores SIGXFSZ, so a longer write raises EFBIG
_FSIZE_CHILD = """
import resource, sys
from kncross.cli import main
resource.setrlimit(resource.RLIMIT_FSIZE, (16, 16))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["check", "k6.pts", "--mode", "bishell", "--witness-out", "out"],
    ["hunt", "--n", "7", "--trials", "14", "--seed", "100", "-o", "out"],
    ["export-svg", "k6.pts", "-o", "out"],
    ["generate", "convex", "--n", "6", "-o", "out"],
], ids=["check-witness-out", "hunt-out", "export-svg-out", "generate-out"])
def test_failed_write_keeps_existing_file(tmp_path, argv):
    (tmp_path / "k6.pts").write_bytes(serialize(gen_convex(6), "points"))
    old = b"an earlier file of more than sixteen bytes\n"
    (tmp_path / "out").write_bytes(old)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", _FSIZE_CHILD, *argv],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert (tmp_path / "out").read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k6.pts", "out"]


def test_hunt_zero_trials(capsys):
    code, stdout, _ = run(capsys, "hunt", "--n", "5", "--trials", "0")
    assert code == 0
    assert "trials=0" in stdout


@pytest.mark.parametrize("argv, reason", [
    (("--n", "7", "--trials", "-3"), "--trials must be non-negative"),
    (("--n", "2", "--trials", "5"), "--n must be at least 3"),
    (("--n", "2", "--trials", "0"), "--n must be at least 3"),
    (("--n", "8", "--trials", "5"), "cannot match at n=8"),
    (("--n", "10", "--trials", "5", "--target", "optimal"),
     "cannot match at n=10"),
])
def test_hunt_rejects_bad_counts_exit_2(capsys, argv, reason):
    code, stdout, stderr = run(capsys, "hunt", *argv)
    assert code == 2
    assert stdout == ""
    assert reason in stderr


def test_export_svg_cli(tmp_path, capsys):
    drawing = tmp_path / "k5.pts"
    run(capsys, "generate", "convex", "--n", "5", "-o", str(drawing))
    svg = tmp_path / "k5.svg"
    code, stdout, _ = run(capsys, "export-svg", str(drawing), "-o", str(svg))
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_undecodable_byte_exits_2_at_its_line(tmp_path, capsys):
    path = tmp_path / "k4.map"
    path.write_bytes(b"kncross v1\nformat map\nn 4\n\xff\n")
    code, stdout, err = run(capsys, "analyze", str(path))
    assert (code, stdout) == (2, "")
    assert err == "error: line 4: byte 0xff is not UTF-8 (invalid start byte)\n"


def _points_file(*coords):
    return "kncross v1\nformat points\nn 3\n" + "".join(
        f"v {i} {x} {y}\n" for i, (x, y) in enumerate(coords))


# valid point files whose picture floats cannot draw: a coordinate beyond
# the largest float, a span beyond it, and a span too small to scale up
UNDRAWABLE_POINTS = {
    "huge": (_points_file((10 ** 400, 0), (1, 0), (0, 1)),
             "cannot draw: a vertex coordinate is too large for a float"),
    "wide": (_points_file((-10 ** 308, 0), (10 ** 308, 0), (0, 1)),
             "cannot draw: a picture spanning inf has no finite float scale"),
    "narrow": (_points_file((0, 0), (f"1/{10 ** 320}", 0), (0, f"1/{10 ** 320}")),
               "cannot draw: a picture spanning 1e-320 has no finite float scale"),
}


@pytest.mark.parametrize("name", UNDRAWABLE_POINTS)
def test_export_svg_refuses_a_picture_floats_cannot_draw(tmp_path, capsys, name):
    text, reason = UNDRAWABLE_POINTS[name]
    with pytest.raises(ValueError) as caught:
        svg_document(parse(text))
    assert str(caught.value) == reason
    path, svg = tmp_path / "big.points", tmp_path / "big.svg"
    path.write_text(text)
    assert run(capsys, "analyze", str(path))[0] == 0
    code, stdout, err = run(capsys, "export-svg", str(path), "-o", str(svg))
    assert (code, stdout, err) == (2, "", f"error: {reason}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.points"]


def test_export_svg_renders_a_map_file(tmp_path, capsys):
    # the map file of a point set has no coordinates; it is drawn from its
    # map, which numbers the crossings as the file does
    drawing = gen_random_points(8, 1)
    path, svg = tmp_path / "k8.map", tmp_path / "k8.svg"
    path.write_bytes(serialize(drawing, "map"))
    code, stdout, err = run(capsys, "export-svg", str(path), "-o", str(svg))
    assert (code, stdout, err) == (0, f"wrote {svg}\n", "")
    assert svg.read_bytes() == svg_document(drawing._replace(geometry=None)).encode("utf-8")


@pytest.mark.parametrize("family, generate", [
    ("convex", gen_convex),
    ("cylindrical", gen_cylindrical),
    ("twopage", lambda n: gen_twopage(twopage_all_top(n))),
    ("random", lambda n: gen_random_points(n, 0)),
])
def test_export_svg_of_a_generated_file_draws_the_generated_drawing(tmp_path, capsys,
                                                                    family, generate):
    # what `generate` writes keeps what its picture needs
    path, svg = tmp_path / "d", tmp_path / "d.svg"
    for n in (3, 8):
        assert run(capsys, "generate", family, "--n", str(n), "-o", str(path))[0] == 0
        assert run(capsys, "export-svg", str(path), "-o", str(svg))[0] == 0
        assert svg.read_bytes() == svg_document(generate(n)).encode("utf-8"), n


def test_export_svg_renders_a_written_twopage_file(tmp_path, capsys):
    # a page assignment of one's own is a twopage file, in any line order
    # and with comments, and export-svg renders it
    pages = {(u, v): "TB"[(u * v + u) % 2] for u, v in itertools.combinations(range(7), 2)}
    spec = TwoPageSpec(order=(3, 0, 6, 1, 5, 2, 4), pages=tuple(pages.values()))
    lines = [f"e {v} {u} {page}" if u % 2 else f"e {u} {v} {page}"
             for (u, v), page in pages.items()]
    random.Random(35).shuffle(lines)
    path, svg = tmp_path / "mine.2p", tmp_path / "mine.svg"
    path.write_text("kncross v1\nformat twopage\nn 7  # seven vertices\n"
                    "order 3 0 6 1 5 2 4\n# the pages, shuffled\n" + "\n".join(lines) + "\n")
    code, stdout, err = run(capsys, "export-svg", str(path), "-o", str(svg))
    assert (code, stdout, err) == (0, f"wrote {svg}\n", "")
    assert svg.read_bytes() == svg_document(gen_twopage(spec)).encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mine.2p", "mine.svg"]


@pytest.mark.parametrize("spelling", ["d.pts", "./d.pts", "sub/../d.pts", "link.pts"])
@pytest.mark.parametrize("command", [
    ("check", "d.pts", "--mode", "bishell", "--witness-out"),
    ("export-svg", "d.pts", "-o"),
], ids=["check", "export-svg"])
def test_output_naming_the_input_exit_2(tmp_path, capsys, monkeypatch, command, spelling):
    # the witness or the picture would replace the drawing it came from
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.pts").symlink_to("d.pts")
    blob = serialize(gen_convex(8), "points")
    (tmp_path / "d.pts").write_bytes(blob)
    with mock.patch("kncross.cli.parse") as parse:
        code, stdout, err = run(capsys, *command, spelling)
    assert code == 2
    assert stdout == ""
    assert "same file" in err
    assert not parse.called
    assert (tmp_path / "d.pts").read_bytes() == blob
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.pts", "link.pts", "sub"]


def test_generate_replaces_existing_files_without_leftovers(tmp_path, capsys,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k6.pts").write_bytes(b"old\n")
    code, _, _ = run(capsys, "generate", "convex", "--n", "6", "-o", "k6.pts")
    assert code == 0
    assert (tmp_path / "k6.pts").read_bytes().startswith(b"kncross v1\nformat points\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k6.pts"]


@pytest.mark.parametrize("target", ["target.svg", "sub/target.svg"])
@pytest.mark.parametrize("exists", [True, False], ids=["existing", "dangling"])
def test_export_svg_writes_through_a_symlink(tmp_path, capsys, monkeypatch, target, exists):
    # the link stays a link, and the file it names gets the picture, with
    # the temporary beside that file and no leftover in either directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "k5.map").write_bytes(serialize(gen_cylindrical(5), "map"))
    if exists:
        (tmp_path / target).write_bytes(b"old\n")
    (tmp_path / "link.svg").symlink_to(target)
    code, stdout, err = run(capsys, "export-svg", "k5.map", "-o", "link.svg")
    assert (code, stdout, err) == (0, "wrote link.svg\n", "")
    assert (tmp_path / "link.svg").is_symlink()
    assert (tmp_path / target).read_bytes() == svg_document(gen_cylindrical(5)).encode("utf-8")
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == sorted(
        {"k5.map", "link.svg", "sub", target})


def test_export_svg_writes_through_a_fifo(tmp_path, capsys, monkeypatch):
    # a FIFO that a reader holds open is written, not replaced by a file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k5.map").write_bytes(serialize(gen_cylindrical(5), "map"))
    os.mkfifo("pipe.svg")
    got = []
    reader = threading.Thread(target=lambda: got.append((tmp_path / "pipe.svg").read_bytes()),
                              daemon=True)
    reader.start()
    code, stdout, err = run(capsys, "export-svg", "k5.map", "-o", "pipe.svg")
    reader.join(timeout=30)
    assert (code, stdout, err) == (0, "wrote pipe.svg\n", "")
    assert got == [svg_document(gen_cylindrical(5)).encode("utf-8")]
    assert stat.S_ISFIFO(os.stat("pipe.svg").st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k5.map", "pipe.svg"]


@pytest.mark.parametrize("mode, extra, search", [
    ("bishell", [], "check_bishellable"),
    ("shell", ["--s", "2"], "check_s_shellable"),
    ("shell", [], "check_s_shellable"),
])
def test_check_reverifies_witness_before_emitting(tmp_path, capsys, monkeypatch,
                                                  mode, extra, search):
    import kncross.cli as cli
    from kncross.io import parse
    from kncross.shelling import (BishellWitness, ShellWitness,
                                  bishell_witness_violation, shell_witness_violation)

    path = tmp_path / "k8.pts"
    run(capsys, "generate", "convex", "--n", "8", "-o", str(path))
    drawing = parse(path.read_bytes())
    if mode == "bishell":
        broken = BishellWitness(drawing.reference_face, (0, 1), (0, 2))
        message = bishell_witness_violation(drawing, broken)
    else:
        vertexless = next(f for f in range(drawing.face_count)
                          if f not in vertex_faces(drawing))
        broken = ShellWitness(vertexless, (0, 1))
        message = shell_witness_violation(drawing, broken)
    assert message is not None
    monkeypatch.setattr(cli, search, lambda *args, **kwargs: broken)
    out = tmp_path / "k8.wit"
    code, stdout, stderr = run(capsys, "check", str(path), "--mode", mode, *extra,
                               "--witness-out", str(out))
    assert code == 3
    assert stderr == f"error: {message}\n"
    assert stdout == ""
    assert not out.exists()


def call(capsys, argv):
    """Exit code, stdout and stderr of one `main` call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_carries_nothing_over(tmp_path, capsys):
    import kncross.cli as cli
    path = tmp_path / "k6.map"
    run(capsys, "generate", "cylindrical", "--n", "6", "-o", str(path))
    sequence = [
        ("analyze", str(path), "--json", "--bogus"),   # usage error, after --json
        ("analyze", str(path), "--json"),
        ("analyze", str(path)),
        ("check", str(path), "--mode", "shell", "--s", "2", "--face", "0", "1"),
        ("check", str(path), "--mode", "shell"),
    ]
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(call(capsys, argv))
    cli._build_parser.cache_clear()
    reused = [call(capsys, argv) for argv in sequence]
    assert cli._build_parser() is cli._build_parser()
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 0]
    assert "unrecognized arguments: --bogus" in fresh[0][2]
    assert json.loads(fresh[1][1])["crossings"] == 3
    assert fresh[2][1].startswith("n=6 cr=3 ")
