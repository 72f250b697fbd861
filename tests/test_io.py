import contextlib
import io
import itertools
import re
import time
from datetime import timedelta
from fractions import Fraction
from math import atan2, hypot
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kncross.io
from kncross.cli import _INPUT_ERRORS, _violation, main
from kncross.drawing import (
    MapError,
    NotGoodDrawing,
    PointsGeometry,
    TwoPageGeometry,
    build_drawing,
)
from kncross.generators import (gen_convex, gen_cylindrical, gen_random_points, gen_twopage,
                                twopage_all_top)
from kncross.io import (
    ParseError,
    parse,
    parse_witness,
    serialize,
    serialize_witness,
    svg_document,
)
from kncross.kedges import k_edge_vector
from kncross.shelling import (
    BishellWitness,
    ShellWitness,
    bishell_witness_violation,
    check_bishellable,
    check_s_shellable,
    shell_witness_violation,
)

from conftest import MAP_REFUSALS, build_outcome, reference_build_drawing, regenerate_subdrawing
from test_cli import ADJACENT_CROSS_K4, PLANAR_K4_MAP


def test_points_round_trip():
    d = gen_convex(5)
    blob = serialize(d, "points")
    again = parse(blob)
    assert serialize(again, "points") == blob
    assert again.crossings == d.crossings
    assert again.vertex_rotations == d.vertex_rotations


def test_twopage_round_trip():
    d = gen_twopage(twopage_all_top(5))
    blob = serialize(d, "twopage")
    again = parse(blob)
    assert serialize(again, "twopage") == blob
    assert again.vertex_rotations == d.vertex_rotations


def test_twopage_duplicate_order_line_refused():
    text = serialize(gen_twopage(twopage_all_top(4)), "twopage").decode()
    text = text.replace("order 0 1 2 3\n", "order 0 1 2 3\norder 3 2 1 0\n")
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert (caught.value.line, caught.value.reason) == (5, "duplicate order line")


MAP7 = serialize(gen_cylindrical(7), "map").decode().splitlines()
TWOPAGE4 = serialize(gen_twopage(twopage_all_top(4)), "twopage").decode().splitlines()
# the same files with the crossing count, or the order line, moved to the end
MAP7_C_LAST = ([line for line in MAP7 if not line.startswith("c ")]
               + [line for line in MAP7 if line.startswith("c ")])
TWOPAGE4_ORDER_LAST = ([line for line in TWOPAGE4 if not line.startswith("order")]
                       + [line for line in TWOPAGE4 if line.startswith("order")])


@pytest.mark.parametrize("lines, prefix, new, inserted, reason", [
    (MAP7, "rot 6 :", "rot 9 :", False, "vertex 9 out of range"),
    (MAP7, "e 0 1 :", "e 0 9 :", False, "vertex 9 out of range"),
    (MAP7, "e 0 1 :", "e 0 9 :", True, "vertex 9 out of range"),
    (MAP7, "x 0 :", "x 999 :", False, "crossing id 999 out of range"),
    (TWOPAGE4, "e 0 1 T", "e 0 7 T", False, "vertex 7 out of range"),
    (TWOPAGE4, "e 0 1 T", "e -1 1 T", False, "vertex -1 out of range"),
    (MAP7, "e 0 1 :", "e 0 1 : 999", False, "crossing id 999 out of range"),
    (MAP7_C_LAST, "e 0 2 : 0", "e 0 2 : -1", False, "crossing id -1 out of range"),
    (MAP7, "rot 0 :", "rot 0 : 9", False,
     "rotation at 0 is not a permutation of the other vertices"),
    (MAP7, "ref 0 1", "ref 0 99", False, "bad reference dart (0,99)"),
    (MAP7, "ref 0 1", "ref 2 2", False, "bad reference dart (2,2)"),
    (TWOPAGE4_ORDER_LAST, "order 0 1 2 3", "order 0 1 2 2", False,
     "order line missing or invalid"),
    (MAP7, "e 0 5 : 2 3 4", "e 0 5 : 2 3 2", False, "edge (0, 5) visits a crossing twice"),
    (MAP7_C_LAST, "e 0 5 : 2 3 4", "e 0 5 : 2 3 4 4", False,
     "edge (0, 5) visits a crossing twice"),
    # as in build_drawing, a revisit is named before an id out of range
    (MAP7, "e 0 5 : 2 3 4", "e 0 5 : 999 3 3", False, "edge (0, 5) visits a crossing twice"),
], ids=["map-rot", "map-edge", "map-extra-edge", "map-crossing", "twopage-edge-high",
        "twopage-edge-negative", "map-path-crossing", "map-path-crossing-c-last",
        "map-rot-not-permutation", "map-ref-vertex", "map-ref-loop", "twopage-order-last",
        "map-path-revisit", "map-path-revisit-c-last", "map-path-revisit-before-range"])
def test_out_of_range_id_refused_at_its_line(lines, prefix, new, inserted, reason):
    # the first line starting with `prefix` gets `new` as its start, or,
    # when `inserted`, is followed by a line `new`
    at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    edited = lines[:at + 1] + [new] if inserted else lines[:at] + [new + lines[at][len(prefix):]]
    with pytest.raises(ParseError) as caught:
        parse("\n".join(edited + lines[at + 1:]) + "\n")
    assert (caught.value.line, caught.value.reason) == (at + 1 + inserted, reason)


@pytest.mark.parametrize("edits, line, reason", [
    # the reference dart is judged before the Euler count
    ({"ref 0 1": "ref 3 3", "e 0 5 : 2 3 4": "e 0 5 : 3 2 4"}, 42,
     "bad reference dart (3,3)"),
    # the rotations are judged before the crossing passes are counted
    ({"rot 1 : 0 3 2 5 4 6": "rot 1 : 0 2 3 4 5 5", "e 0 5 : 2 3 4": "e 0 5 : 2 3"}, 6,
     "rotation at 1 is not a permutation of the other vertices"),
], ids=["ref-before-euler", "rot-before-passes"])
def test_map_line_fault_named_before_a_count_refusal(edits, line, reason):
    # cylindrical K_7 with a fault `build_drawing` blames on one line and a
    # path fault only its counts find: the line is named
    assert set(edits) <= set(MAP7)
    with pytest.raises(ParseError) as caught:
        parse("".join(edits.get(row, row) + "\n" for row in MAP7))
    assert (caught.value.line, caught.value.reason) == (line, reason)


@pytest.mark.parametrize("prefix, reason", [
    ("c ", "missing crossing count"),
    ("rot 3 :", "missing rotation lines"),
    ("x 0 :", "missing orientation lines"),
    ("ref ", "missing ref line"),
    ("e 0 1 :", "missing edge lines"),
    ("e 5 6 :", "missing edge lines"),
], ids=["c", "rot", "x", "ref", "e-first", "e-last"])
def test_missing_map_line_refused_at_the_last_line(prefix, reason):
    lines = [line for line in MAP7 if not line.startswith(prefix)]
    assert len(lines) == len(MAP7) - 1
    with pytest.raises(ParseError) as caught:
        parse("\n".join(lines) + "\n")
    assert (caught.value.line, caught.value.reason) == (len(lines), reason)


def test_crossing_id_out_of_range_refused_when_c_follows_the_x_lines():
    # the x lines are range-checked once the crossing count is known
    count = next(line for line in MAP7 if line.startswith("c "))
    lines = [line for line in MAP7 if line != count] + [count]
    at = next(i for i, line in enumerate(lines) if line.startswith("x 2 :"))
    lines[at] = "x -2" + lines[at][3:]
    with pytest.raises(ParseError) as caught:
        parse("\n".join(lines) + "\n")
    assert (caught.value.line, caught.value.reason) == (at + 1, "crossing id -2 out of range")


def test_map_round_trip_all_families(small_corpus):
    for _name, _n, drawing in small_corpus:
        blob = serialize(drawing, "map")
        again = parse(blob)
        assert serialize(again, "map") == blob
        assert again.crossings == drawing.crossings
        assert again.face_count == drawing.face_count
        assert again.vertex_rotations == drawing.vertex_rotations
        assert again.reference_face == drawing.reference_face
        assert k_edge_vector(again) == k_edge_vector(drawing)


def test_map_serialization_is_deterministic():
    a = serialize(gen_cylindrical(8), "map")
    b = serialize(gen_cylindrical(8), "map")
    assert a == b


def test_map_round_trip_large_drawings():
    for drawing in (gen_cylindrical(12), gen_convex(10)):
        blob = serialize(drawing, "map")
        again = parse(blob)
        assert serialize(again, "map") == blob
        assert again.crossings == drawing.crossings
        assert again.face_count == drawing.face_count


def test_geometry_required_for_points_format():
    d = gen_cylindrical(6)
    with pytest.raises(ValueError, match=r"^drawing has no point coordinates$"):
        serialize(d, "points")
    # a map file has no coordinates, but it has a picture: its map's
    reparsed = parse(serialize(d, "map"))
    assert svg_document(reparsed) == svg_document(d)


def test_unknown_format_refused_at_format_line(tmp_path, capsys):
    text = "kncross v1\nformat foo\nn 4\n"
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert (caught.value.line, caught.value.reason) == (2, "unknown format 'foo'")
    path = tmp_path / "foo.txt"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: line 2: unknown format 'foo'\n")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse(b"bogus v9\nformat points\nn 3\n")
    with pytest.raises(ParseError):
        parse(b"kncross v1\nformat nope\nn 3\n")
    with pytest.raises(ParseError):
        parse(b"kncross v1\nformat points\nn 3\nv 0 1/1 2/1\n")  # missing points
    bad_edge = (b"kncross v1\nformat map\nn 3\nc 0\n"
                b"rot 0 : 1 2\nrot 1 : 0 2\nrot 2 : 0 1\n"
                b"e 1 0 :\ne 0 2 :\ne 1 2 :\nref 0 1\n")
    with pytest.raises(ParseError):
        parse(bad_edge)


def _flipped_bits(n):
    """(line number, crossing id, map) for every `x` line of the cylindrical
    K_n map, the map having that one line's bit flipped."""
    lines = serialize(gen_cylindrical(n), "map").decode().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("x "):
            flipped = line[:-1] + ("-" if line.endswith("+") else "+")
            yield i + 1, int(line.split()[1]), "\n".join(
                lines[:i] + [flipped] + lines[i + 1:]) + "\n"


def _corrupted_bits():
    return [text for _, k, text in _flipped_bits(6) if k < 3]


def test_corrupted_orientation_bit_rejected():
    # the orientation bits carry real information: corrupting one breaks
    # sphere embeddability, and the refusal names the flipped line
    for no, k, corrupted in _flipped_bits(6):
        if k < 3:
            with pytest.raises(ParseError) as caught:
                parse(corrupted)
            assert caught.value.line == no
            assert caught.value.reason.startswith(f"orientation of crossing {k} disagrees")


def test_every_flipped_bit_named_at_its_line():
    # each of the 36 crossings of cylindrical K_9, its bit flipped alone:
    # the rotations contradict exactly that line, named with the four ends
    # of the crossing's edges
    original = parse(serialize(gen_cylindrical(9), "map"))
    crossed = original.crossed_edges
    flips = 0
    for no, k, text in _flipped_bits(9):
        ends = sorted(original.edges[crossed[2 * k]] + original.edges[crossed[2 * k + 1]])
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert str(caught.value) == (f"line {no}: orientation of crossing {k} disagrees "
                                     f"with the rotations at {' '.join(map(str, ends))}")
        flips += 1
    assert flips == original.crossings == 36


def test_swapped_rotation_blames_no_bit():
    # two neighbours swapped in one rotation of cylindrical K_9: the
    # rotations disagree with the paths, not only with a bit, so no `x` line
    # is named and the face walk's refusal stands
    lines = serialize(gen_cylindrical(9), "map").decode().splitlines()
    swaps = 0
    for i, line in enumerate(lines):
        if line.startswith("rot "):
            head, tail = line.split(" : ")
            ws = tail.split()
            for j in range(len(ws) - 1):
                swapped = ws[:j] + [ws[j + 1], ws[j]] + ws[j + 2:]
                text = "\n".join(lines[:i] + [f"{head} : {' '.join(swapped)}"]
                                 + lines[i + 1:]) + "\n"
                with pytest.raises(ValueError, match=MAP_REFUSALS["euler"]):
                    parse(text)
                swaps += 1
    assert swaps == 9 * 7


@pytest.mark.parametrize("edits, refusal", [
    # rotation 0 permuted: the rotations' own bit does not build it either
    ({"rot 0 : 1 3 4 2": "rot 0 : 1 3 2 4", "x 0 : +": "x 0 : -"}, "V-E+F = 6-12+4 != 2"),
    # a second crossing that no path meets
    ({"c 1": "c 2", "x 0 : +": "x 0 : -\nx 1 : +"}, "crossing 1 met by 0 edge passes, expected 2"),
], ids=["rotation", "unmet-crossing"])
def test_bit_and_other_fault_keeps_the_build_refusal(edits, refusal):
    # cylindrical K_5 with its one bit flipped and another fault: changing
    # bits alone cannot mend it, so no `x` line is named
    lines = serialize(gen_cylindrical(5), "map").decode().splitlines()
    assert set(edits) <= set(lines)
    with pytest.raises(ValueError) as caught:
        parse("".join(edits.get(line, line) + "\n" for line in lines))
    assert (type(caught.value), str(caught.value)) == (ValueError, refusal)


def test_swapped_path_names_a_bit_exactly_when_bits_alone_mend_it():
    # cylindrical K_7 as it is and with each adjacent pair of crossings in
    # an `e` line swapped, each with each `x` line flipped: the flipped line
    # is named exactly when the map's paths build with its bits unflipped
    # under the reference assembly, and otherwise the build's refusal stands
    lines = serialize(gen_cylindrical(7), "map").decode().splitlines()
    drawing = parse("\n".join(lines) + "\n")
    ref = tuple(map(int, lines[-1].split()[1:]))
    xs = [(i, int(line.split()[1])) for i, line in enumerate(lines) if line.startswith("x ")]
    variants = [(lines, dict(zip(drawing.edges, drawing.edge_paths)))]
    for i, line in enumerate(lines):
        if line.startswith("e "):
            head, tail = line.split(" :")
            ks = tail.split()
            for j in range(len(ks) - 1):
                swapped = ks[:j] + [ks[j + 1], ks[j]] + ks[j + 2:]
                paths = dict(variants[0][1])
                paths[tuple(map(int, head.split()[1:]))] = tuple(map(int, swapped))
                variants.append((lines[:i] + [f"{head} : {' '.join(swapped)}"] + lines[i + 1:],
                                 paths))
    named = 0
    for text_lines, paths in variants:
        try:
            reference_build_drawing(7, paths, drawing.orientation_bits,
                                    drawing.vertex_rotations, ref)
            mendable = True
        except ValueError:
            mendable = False
        for i, k in xs:
            x = text_lines[i]
            flipped = text_lines[:i] + [x[:-1] + ("-" if x.endswith("+") else "+")]
            with pytest.raises(ValueError) as caught:
                parse("\n".join(flipped + text_lines[i + 1:]) + "\n")
            if mendable:
                assert caught.value.line == i + 1
                assert caught.value.reason.startswith(f"orientation of crossing {k} disagrees")
                named += 1
            else:
                assert not isinstance(caught.value, ParseError), caught.value
    assert (len(variants), len(xs), named) == (7, 9, 9)


# K4 map in which edges 0-1 and 2-3 cross twice, and 0-3 crosses 1-2: a
# coherent sphere map, not a good drawing, so the rotations need not fix
# its bits (the K_4 rule reads '-' for crossing 1)
DOUBLE_CROSS_K4 = (
    "kncross v1\nformat map\nn 4\nc 3\n"
    "rot 0 : 1 2 3\nrot 1 : 0 2 3\nrot 2 : 0 3 1\nrot 3 : 0 2 1\n"
    "e 0 1 : 0 1\ne 0 2 :\ne 0 3 : 2\ne 1 2 : 2\ne 1 3 :\ne 2 3 : 0 1\n"
    "x 0 : -\nx 1 : +\nx 2 : -\nref 0 2\n")


def test_non_good_map_refused_as_not_good_not_by_its_bits():
    with pytest.raises(NotGoodDrawing, match=r"double_cross of edges 0-1 and 2-3$"):
        parse(DOUBLE_CROSS_K4)


def test_mirror_image_map_embeds():
    # reversing every rotation and flipping every bit is the mirror
    # drawing: it must parse, embed, and have identical invariants
    import re
    d = gen_cylindrical(7)
    blob = serialize(d, "map").decode()
    lines = []
    for line in blob.splitlines():
        if line.startswith("rot "):
            head, tail = line.split(" : ")
            lines.append(head + " : " + " ".join(reversed(tail.split())))
        elif line.startswith("x "):
            lines.append(line[:-1] + ("-" if line.endswith("+") else "+"))
        else:
            lines.append(line)
    mirrored = parse("\n".join(lines) + "\n")
    assert mirrored.crossings == d.crossings
    assert mirrored.face_count == d.face_count
    # the same labels with every rotation reversed
    assert mirrored.vertex_rotations == tuple(
        (row[0],) + row[:0:-1] for row in d.vertex_rotations)


def test_parser_rejects_mutations_with_declared_errors():
    # every single-line mutation either still parses or is refused with a
    # ValueError, never an internal error
    mutations = _line_mutations()
    survived = 0
    for mutant in mutations:
        try:
            parse(mutant)
            survived += 1
        except ValueError:
            pass
    assert survived < len(mutations)   # the mutations are not all harmless


def _line_mutations():
    """Single-line mutations of a cylindrical K6 map."""
    lines = serialize(gen_cylindrical(6), "map").decode().splitlines()
    mutations = []
    for i in range(len(lines)):
        mutations.append(lines[:i] + lines[i + 1:])            # drop a line
        mutations.append(lines[:i] + [lines[i] + " 7"] + lines[i + 1:])
        mutations.append(lines[:i] + [lines[i].replace("1", "2", 1)] + lines[i + 1:])
        words = lines[i].split()  # the last word echoes the second: `ref u u`
        mutations.append(lines[:i] + [" ".join(words[:-1] + words[1:2])] + lines[i + 1:])
    return ["\n".join(mutant) + "\n" for mutant in mutations]


def test_mutated_maps_refused_as_reference_build_refuses(monkeypatch):
    # every mutated or corrupted map reaches the same outcome, down to the
    # exception class and message, through either map assembly
    texts = _line_mutations() + list(_corrupted_bits())
    build, raised = kncross.io.build_drawing, []

    def recording_build(*args):
        try:
            return build(*args)
        except ValueError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(kncross.io, "build_drawing", recording_build)
    outcomes = [build_outcome(parse, text) for text in texts]
    monkeypatch.setattr(kncross.io, "build_drawing", reference_build_drawing)
    assert outcomes == [build_outcome(parse, text) for text in texts]
    # the corpus reaches each of build_drawing's map refusals, which
    # `parse` may then name at a line
    refused = {kind for exc in raised for kind, message in MAP_REFUSALS.items()
               if type(exc) in (ValueError, MapError) and re.search(message, str(exc))}
    assert refused == set(MAP_REFUSALS)


def assert_map_error_named(text):
    """When `build_drawing` refuses the map in `text` with a `MapError`,
    `parse` refuses it with that message at a line whose kind and leading
    ids are the error's part; the part, or None."""
    errors, refusal = [], None

    def recording_build(*args):
        try:
            return build_drawing(*args)
        except MapError as exc:
            errors.append(exc)
            raise

    with mock.patch.object(kncross.io, "build_drawing", recording_build):
        try:
            parse(text)
        except ValueError as exc:
            refusal = exc
    if errors:
        (error,) = errors
        assert isinstance(refusal, ParseError) and refusal.reason == str(error)
        kind, *ids = text.splitlines()[refusal.line - 1].split()
        assert [kind, *map(int, ids[:len(error.part) - 1])] == list(error.part)
        return error.part
    return None


def test_mutated_map_errors_named_at_their_part():
    # rotation, path and reference faults among the single-line mutations
    # are named at the line of the part `build_drawing` refuses
    parts = [assert_map_error_named(text) for text in _line_mutations()]
    assert {part[0] for part in parts if part} == {"e", "rot", "ref"}


# the convex K4 map, with a bad token in the middle of line 6 or line 13
CONVEX_K4_MAP = (
    "kncross v1\nformat map\nn 4\nc 1\n"
    "rot 0 : 1 2 3\nrot 1 : 0 2 3\nrot 2 : 0 1 3\nrot 3 : 0 1 2\n"
    "e 0 1 :\ne 0 2 : 0\ne 0 3 :\ne 1 2 :\ne 1 3 : 0\ne 2 3 :\n"
    "x 0 : +\nref 0 3\n")
BAD_TOKENS = [
    (CONVEX_K4_MAP.replace("rot 1 : 0 2 3", "rot 1 : 0 x 3"), 6),
    (CONVEX_K4_MAP.replace("e 1 3 : 0", "e 1 3 : 1 x 2"), 13),
]


@pytest.mark.parametrize("text, line", BAD_TOKENS, ids=["rot", "e"])
def test_bad_integer_in_line_pinned(tmp_path, capsys, text, line):
    assert parse(CONVEX_K4_MAP).crossings == 1
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert str(caught.value) == f"line {line}: bad integer 'x'"
    assert (caught.value.line, caught.value.reason) == (line, "bad integer 'x'")
    path = tmp_path / "bad.map"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: line {line}: bad integer 'x'\n")


K4_POINTS = "kncross v1\nformat points\nn 4\nv 0 0/1 0/1\nv 1 {} 0/1\nv 2 0/1 1/1\nv 3 1/1 1/1\n"


@pytest.mark.parametrize("token, x", [
    ("2/1", Fraction(2)), ("-3/4", Fraction(-3, 4)), ("+5", Fraction(5)),
    ("10/4", Fraction(5, 2)), ("007", Fraction(7))])
def test_rational_tokens_are_integers_or_p_over_q(token, x):
    assert parse(K4_POINTS.format(token)).geometry.points[1].x == x


@pytest.mark.parametrize("token", [
    "1e10000000", "1E5", "1e-100000", "0.5", ".5", "5.", "1_000", "1/0",
    "1/-2", "1//2", "inf", "nan", "0x10", "\u0663"])
def test_other_rational_tokens_refused_at_their_line(token):
    # exponents are refused before `Fraction` could expand them
    start = time.perf_counter()
    with pytest.raises(ParseError) as caught:
        parse(K4_POINTS.format(token))
    assert time.perf_counter() - start < 1.0
    assert (caught.value.line, caught.value.reason) == (5, f"bad rational {token!r}")


# One integer token of the convex K4 map per site: (text with the token
# replaced by {}, its line, its value).  `rot-neighbor` and `e-crossing`
# are read through `_ints`, the others through `_int`.
INTEGER_SITES = {
    "n": (CONVEX_K4_MAP.replace("\nn 4\n", "\nn {}\n"), 3, 4),
    "c": (CONVEX_K4_MAP.replace("\nc 1\n", "\nc {}\n"), 4, 1),
    "rot-vertex": (CONVEX_K4_MAP.replace("rot 2 :", "rot {} :"), 7, 2),
    "rot-neighbor": (CONVEX_K4_MAP.replace("rot 1 : 0 2 3", "rot 1 : 0 {} 3"), 6, 2),
    "e-endpoint": (CONVEX_K4_MAP.replace("e 1 2 :", "e 1 {} :"), 12, 2),
    "e-crossing": (CONVEX_K4_MAP.replace("e 0 2 : 0", "e 0 2 : {}"), 10, 0),
    "x": (CONVEX_K4_MAP.replace("x 0 :", "x {} :"), 15, 0),
    "ref": (CONVEX_K4_MAP.replace("ref 0 3", "ref 0 {}"), 16, 3),
}


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
@pytest.mark.parametrize("spell", ["{}", "+{}", "0{}"], ids=["plain", "plus", "zero"])
def test_integer_tokens_are_signed_ascii_digits(site, spell):
    text, _, value = INTEGER_SITES[site]
    expected = serialize(parse(CONVEX_K4_MAP), "map")
    assert serialize(parse(text.format(spell.format(value))), "map") == expected


# spellings of a value that `int` would take, or would refuse anyway
OTHER_INTEGER_SPELLINGS = {
    "underscore": lambda v: f"0_{v}",
    "arabic-indic": lambda v: chr(0x660 + v),
    "fullwidth": lambda v: chr(0xFF10 + v),
    "devanagari": lambda v: chr(0x966 + v),
    "decimal-point": lambda v: f"{v}.0",
    "exponent": lambda v: f"{v}e0",
    "hex": lambda v: f"0x{v}",
    "double-sign": lambda v: f"+-{v}",
}


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
@pytest.mark.parametrize("spelling", sorted(OTHER_INTEGER_SPELLINGS))
def test_other_integer_tokens_refused_at_their_line(site, spelling):
    text, line, value = INTEGER_SITES[site]
    token = OTHER_INTEGER_SPELLINGS[spelling](value)
    with pytest.raises(ParseError) as caught:
        parse(text.format(token))
    assert (caught.value.line, caught.value.reason) == (line, f"bad integer {token!r}")


# header counts far beyond the file's lines: refused before anything is
# sized by them
HUGE = 10**15
HOSTILE_COUNTS = [
    CONVEX_K4_MAP.replace("\nn 4\n", f"\nn {HUGE}\n"),
    CONVEX_K4_MAP.replace("\nc 1\n", f"\nc {HUGE}\n"),
    serialize(gen_twopage(twopage_all_top(4)), "twopage").decode().replace(
        "\nn 4\n", f"\nn {HUGE}\n"),
]


@pytest.mark.parametrize("text", HOSTILE_COUNTS, ids=["map-n", "map-c", "twopage-n"])
def test_hostile_header_counts_refused(tmp_path, capsys, text):
    with pytest.raises(ParseError):
        parse(text)
    path = tmp_path / "hostile.txt"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: line ")


NEGATIVE_COUNTS = [
    (PLANAR_K4_MAP.replace("\nc 0\n", "\nc -7\n"), 4, "negative crossing count -7"),
    (PLANAR_K4_MAP.replace("\nn 4\n", "\nn -4\n"), 3, "negative vertex count -4"),
    (serialize(gen_convex(4), "points").decode().replace("\nn 4\n", "\nn -1\n"), 3,
     "negative vertex count -1"),
]


@pytest.mark.parametrize("text, line, reason", NEGATIVE_COUNTS, ids=["map-c", "map-n", "points-n"])
def test_negative_header_counts_refused(text, line, reason):
    # a negative count used to pass the parser's count checks, `c` as no
    # crossings and `n` until map assembly
    assert parse(PLANAR_K4_MAP).crossings == 0
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert (caught.value.line, caught.value.reason) == (line, reason)


def test_comments_and_blank_lines_ignored():
    d = gen_convex(4)
    text = serialize(d, "points").decode()
    noisy = "# header comment\n" + text.replace("\n", "\n\n# noise\n", 1)
    assert parse(noisy).crossings == d.crossings


def test_witness_round_trip_shell():
    d = gen_convex(8)
    witness = check_s_shellable(d, 4)
    blob = serialize_witness(d, witness)
    again = parse_witness(blob, d)
    assert isinstance(again, ShellWitness)
    assert again == witness
    assert shell_witness_violation(d, again) is None


def test_witness_round_trip_bishell():
    d = gen_cylindrical(9)
    witness = check_bishellable(d, 2)
    blob = serialize_witness(d, witness)
    again = parse_witness(blob, d)
    assert isinstance(again, BishellWitness)
    assert again == witness
    assert bishell_witness_violation(d, again) is None


def test_witness_example_format():
    d = gen_convex(6)
    text = "kncross-witness v1\nbishell\nface 0 1\na: 0 1\nb: 3 2\n"
    witness = parse_witness(text, d)
    assert witness.order == 1
    assert witness.a_seq == (0, 1) and witness.b_seq == (3, 2)
    assert witness.face == d.face_left_of(0, 1)


def test_witness_parse_errors():
    d = gen_convex(6)
    with pytest.raises(ParseError):
        parse_witness("kncross-witness v1\nshell\nface 0 1\nv: 1 1 2\n", d)
    with pytest.raises(ParseError):
        parse_witness("kncross-witness v1\nbishell\nface 0 1\na: 0 1\n", d)
    with pytest.raises(ParseError):
        parse_witness("kncross v1\nshell\nface 0 1\nv: 1\n", d)


def test_face_without_a_dart_refused():
    # face 4 of the convex K_5 is the central pentagon: no vertex touches
    # it, so no dart names it in a map or a witness file
    d = gen_convex(5)
    with pytest.raises(ValueError, match=r"^face 4 touches no vertex; cannot serialize$"):
        serialize(d.with_reference(4), "map")
    with pytest.raises(ValueError, match=r"^face 4 touches no vertex; cannot serialize$"):
        serialize_witness(d, ShellWitness(face=4, seq=(0, 1, 2)))


def test_svg_export():
    targets = [gen_convex(5), gen_twopage(twopage_all_top(5)), gen_cylindrical(6),
               gen_random_points(5, 3)]
    for drawing in targets:
        body = svg_document(drawing)
        assert body.startswith("<svg")
        assert body.count("<circle") >= drawing.n
        assert body.count('fill="#c22"') == drawing.crossings  # a red mark per crossing


def test_cylindrical_picture_stays_on_its_canvas():
    # every edge sample, crossing mark and vertex dot lies on the canvas
    for n in range(3, 25):
        svg = svg_document(gen_cylindrical(n))
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 700.000 700.000">')
        points = [xy.split(",") for samples in re.findall(r'<polyline points="([^"]*)"', svg)
                  for xy in samples.split()]
        points += re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', svg)
        off = [p for p in points if not all(0 <= float(z) <= 700 for z in p)]
        assert not off, (n, off[:3])


def _drawn_position(curve, mark):
    """Arc length along the polyline `curve` of its point nearest `mark`."""
    best, position, run = None, 0.0, 0.0
    for (x0, y0), (x1, y1) in zip(curve, curve[1:]):
        dx, dy = x1 - x0, y1 - y0
        length = hypot(dx, dy)
        t = 0.0 if length == 0 else ((mark[0] - x0) * dx + (mark[1] - y0) * dy) / length ** 2
        t = min(1.0, max(0.0, t))
        distance = hypot(x0 + t * dx - mark[0], y0 + t * dy - mark[1])
        if best is None or distance < best:
            best, position = distance, run + t * length
        run += length
    return position


# cylindrical drawings by (n, deleted vertices): K_9..K_16, a subdrawing
# of K_16, and the two subdrawings of K_9 that keep one circle only
LID_DRAWINGS = ([(n, ()) for n in range(9, 17)]
                + [(16, (2, 11)), (9, (5, 6, 7, 8)), (9, (0, 1, 2, 3, 4))])


@pytest.mark.parametrize("n, deleted", LID_DRAWINGS,
                         ids=[f"K{n}-{'-'.join(map(str, gone))}" if gone else f"K{n}"
                              for n, gone in LID_DRAWINGS])
def test_cylindrical_lid_marks_in_edge_path_order(n, deleted):
    # the picture draws the map: along every drawn edge the red marks come
    # in the order of the edge's crossings in the map, the marks numbered
    # as a map file numbers the crossings
    drawing = gen_cylindrical(n)
    if deleted:
        drawing, _ = regenerate_subdrawing(drawing, set(range(n)) - set(deleted))
    svg = svg_document(drawing)
    curves = [[tuple(map(float, xy.split(","))) for xy in points.split()]
              for points in re.findall(r'<polyline points="([^"]*)"', svg)]
    red = r'<circle cx="([^"]*)" cy="([^"]*)" r="[^"]*" fill="#c22"'
    marks = [(float(x), float(y)) for x, y in re.findall(red, svg)]
    assert (len(curves), len(marks)) == (len(drawing.edges), drawing.crossings)
    in_file = parse(serialize(drawing, "map"))
    for e, path in enumerate(in_file.edge_paths):
        drawn = sorted(path, key=lambda k: _drawn_position(curves[e], marks[k]))
        assert tuple(drawn) == path, drawing.edges[e]


def _map_layout(drawing):
    """The unrounded on-screen edge polylines and vertex points of the
    picture of `drawing`'s map file."""
    with mock.patch.object(kncross.io, "_picture", side_effect=kncross.io._picture) as picture:
        svg_document(parse(serialize(drawing, "map")))
    _size, _backdrop, curves, _marks, vertices = picture.call_args.args
    return curves, vertices


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _layout_drawings(small_corpus):
    """`small_corpus`, cylindrical and convex K_8..K_12, random K_8..K_11."""
    return ([drawing for _name, _n, drawing in small_corpus]
            + [gen(n) for gen in (gen_cylindrical, gen_convex) for n in range(8, 13)]
            + [gen_random_points(n, 1) for n in range(8, 12)])


def test_map_layout_has_no_crossing_segments(small_corpus):
    # a Tutte layout of the planarization is a plane drawing: no two of
    # its segments that share no node meet
    for drawing in _layout_drawings(small_corpus):
        curves, _ = _map_layout(drawing)
        segments = sorted((min(a, b), max(a, b)) for curve in curves
                          for a, b in zip(curve, curve[1:]))
        for i, (a, b) in enumerate(segments):  # by least x, each against those it reaches
            for c, d in itertools.takewhile(lambda s: s[0][0] <= b[0], segments[i + 1:]):
                if not {a, b} & {c, d}:
                    assert (_orient(a, b, c) * _orient(a, b, d) > 0
                            or _orient(c, d, a) * _orient(c, d, b) > 0), (drawing.n, a, b, c, d)


def test_map_layout_reads_each_rotation_counterclockwise(small_corpus):
    # the first segment of each edge at a vertex, taken counterclockwise
    # round it (y points down on screen), reads the vertex's rotation
    for drawing in _layout_drawings(small_corpus):
        curves, vertices = _map_layout(drawing)
        for u, (x, y) in enumerate(vertices):
            ends = {v if u == w else w: curve[1] if u == w else curve[-2]
                    for (w, v), curve in zip(drawing.edges, curves) if u in (w, v)}
            ccw = sorted(ends, key=lambda w: atan2(y - ends[w][1], ends[w][0] - x))
            start = ccw.index(drawing.vertex_rotations[u][0])
            assert tuple(ccw[start:] + ccw[:start]) == drawing.vertex_rotations[u], (drawing.n, u)


# ---------------------------------------------------------------------------
# fuzzing map files against the reference map assembly
# ---------------------------------------------------------------------------

FUZZ_BASES = [serialize(d, "map").decode().splitlines() for d in (
    gen_convex(4), gen_convex(5), gen_cylindrical(5), gen_random_points(5, 3))]
FUZZ_BASES.append(ADJACENT_CROSS_K4.splitlines())
# cylindrical K_5 with a count fault, which `build_drawing` judges after
# the rotations and the reference: its one crossing met once, where an edit
# can break a rotation or the reference, or Euler's formula broken by a
# rotation swap, with a loop for the reference
CYL5 = serialize(gen_cylindrical(5), "map").decode()
FUZZ_BASES += [CYL5.replace("e 1 4 : 0\n", "e 1 4 :\n").splitlines(),
               CYL5.replace("rot 0 : 1 3 4 2", "rot 0 : 1 4 3 2")
               .replace("ref 0 1", "ref 0 0").splitlines()]
FUZZ_TOKENS = ["0", "1", "2", "3", "4", "5", "6", "-1", str(HUGE),
               "+", "-", ":", "c", "e", "n", "x", "rot", "ref"]


def _edited(lines, edits):
    """`lines` with token and line edits; every index wraps around.

    "swap" exchanges two neighbors in the list after a line's ':' (a
    rotation or an edge path), "repeat" doubles one of its entries and
    "flip" turns '+' into '-' and back, so that many edited files still
    parse and reach map assembly; "echo" copies one of a line's numbers
    onto the next, so that a reference becomes a loop `ref u u` and a
    rotation repeats a neighbor.  "renumber" replaces one of a line's
    numbers, so that a coordinate or a vertex id takes the token.
    """
    rows = [line.split() for line in lines]
    for kind, i, j, token in edits:
        row = rows[i % len(rows)]
        body = row.index(":") + 1 if ":" in row else len(row)
        numbers = [a for a, t in enumerate(row) if t.lstrip("+-").replace("/", "").isdigit()]
        if kind == "replace" and row:
            row[j % len(row)] = token
        elif kind == "renumber" and numbers:
            row[numbers[j % len(numbers)]] = token
        elif kind == "insert":
            row.insert(j % (len(row) + 1), token)
        elif kind == "delete" and row:
            del row[j % len(row)]
        elif kind == "swap" and len(row) - body >= 2:
            a = body + j % (len(row) - body - 1)
            row[a], row[a + 1] = row[a + 1], row[a]
        elif kind == "repeat" and len(row) > body:
            a = body + j % (len(row) - body)
            row.insert(a, row[a])
        elif kind == "echo" and len(numbers) >= 2:
            a = j % (len(numbers) - 1)
            row[numbers[a + 1]] = row[numbers[a]]
        elif kind == "flip":
            row[:] = [{"+": "-", "-": "+"}.get(t, t) for t in row]
        elif kind == "drop line" and len(rows) > 1:
            del rows[i % len(rows)]
        elif kind == "copy line":
            rows.insert(j % (len(rows) + 1), list(row))
        elif kind == "move line":
            rows.insert(j % len(rows), rows.pop(i % len(rows)))
    return "".join(" ".join(row) + "\n" for row in rows)


EDITS = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "swap", "repeat", "echo", "flip",
                     "drop line", "copy line", "move line"]),
    st.integers(0, 63), st.integers(0, 63), st.sampled_from(FUZZ_TOKENS))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(FUZZ_BASES), st.lists(EDITS, min_size=1, max_size=3))
def test_fuzzed_maps_refused_as_reference_build_refuses(lines, edits):
    # an edited map parses, or both map assemblies refuse it with the same
    # class, message and goodness report; either way it exits 2, never 1
    text = _edited(lines, edits)
    outcome = build_outcome(parse, text)
    with mock.patch.object(kncross.io, "build_drawing", reference_build_drawing):
        assert build_outcome(parse, text) == outcome
    assert_map_error_named(text)
    if len(outcome) == 3:
        assert issubclass(outcome[0], _INPUT_ERRORS), outcome
    else:
        blob = serialize(parse(text), "map")
        assert serialize(parse(blob), "map") == blob


# ---------------------------------------------------------------------------
# fuzzing points and twopage files
# ---------------------------------------------------------------------------

FILE_BASES = [serialize(d, fmt).decode().splitlines() for d, fmt in (
    [(gen_convex(n), "points") for n in (4, 5, 6)]
    + [(gen_random_points(n, n), "points") for n in (4, 5, 6)]
    + [(gen_twopage(twopage_all_top(n)), "twopage") for n in (4, 5, 6)])]
# numbers in every form `Fraction` takes, and the words of both formats
FILE_NUMBERS = ["0", "1", "2", "3", "5", "-1", "+4", "1/2", "-3/7", "0/1",
                "1/0", str(HUGE), f"1/{HUGE}", f"{HUGE**20}/{HUGE**19 + 1}",
                "9" * 5000, "0.5", "-1.25", "1e100000", "1e-100000", "2E3",
                "1_000", "inf"]
FILE_WORDS = ["v", "e", "T", "B", "order", "n", "format", "points", "twopage", "map"]
FILE_EDITS = st.one_of(
    st.tuples(st.sampled_from(["replace", "insert", "delete", "drop line",
                               "copy line", "move line"]),
              st.integers(0, 63), st.integers(0, 63),
              st.sampled_from(FILE_NUMBERS + FILE_WORDS)),
    st.tuples(st.just("renumber"), st.integers(0, 63), st.integers(0, 63),
              st.sampled_from(FILE_NUMBERS)))


# a deadline per example: on a parser that expands `1e-100000` the
# example takes seconds, and the test fails
@settings(max_examples=400, deadline=timedelta(seconds=1), database=None,
          derandomize=True)
@given(st.sampled_from(FILE_BASES), st.lists(FILE_EDITS, min_size=1, max_size=3))
def test_fuzzed_points_and_twopage_files_refused_or_fixed_points(lines, edits):
    text = _edited(lines, edits)
    try:
        drawing = parse(text)
    except _INPUT_ERRORS:
        return
    fmt = {PointsGeometry: "points", TwoPageGeometry: "twopage"}.get(
        type(drawing.geometry), "map")
    blob = serialize(drawing, fmt)
    assert serialize(parse(blob), fmt) == blob


# ---------------------------------------------------------------------------
# fuzzing witness files
# ---------------------------------------------------------------------------

WITNESS_DRAWINGS = {
    "convex6": (gen_convex(6), "points"),
    "cylindrical7": (gen_cylindrical(7), "map"),
    "random8": (gen_random_points(8, 1), "points"),
}
# a bishell witness of the paper's order, a first-shell and a 3-shell
# witness of every drawing
WITNESS_BASES = [(name, serialize_witness(d, w).decode().splitlines())
                 for name, (d, _) in WITNESS_DRAWINGS.items()
                 for w in (check_bishellable(d), check_s_shellable(d),
                           check_s_shellable(d, 3))]
# vertex numbers in and out of range, and the words of the format
WITNESS_NUMBERS = ["0", "1", "2", "3", "4", "5", "6", "7", "8", "-1", "+2", "1/2", str(HUGE)]
WITNESS_WORDS = ["kncross-witness", "v1", "shell", "bishell", "face", "v:", "a:", "b:", ":"]
WITNESS_EDITS = st.one_of(
    st.tuples(st.sampled_from(["replace", "insert", "delete", "drop line",
                               "copy line", "move line"]),
              st.integers(0, 63), st.integers(0, 63),
              st.sampled_from(WITNESS_NUMBERS + WITNESS_WORDS)),
    st.tuples(st.just("renumber"), st.integers(0, 63), st.integers(0, 63),
              st.sampled_from(WITNESS_NUMBERS)))


@pytest.fixture(scope="module")
def witness_drawing_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("witness-fuzz")
    files = {}
    for name, (d, fmt) in WITNESS_DRAWINGS.items():
        path = root / f"{name}.{fmt}"
        path.write_bytes(serialize(d, fmt))
        files[name] = (parse(path.read_bytes()), path)
    return root, files


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(WITNESS_BASES), st.lists(WITNESS_EDITS, min_size=1, max_size=3))
def test_fuzzed_witness_files_refused_or_judged(witness_drawing_files, base, edits):
    # an edited witness file is refused as bad input (exit 2) or judged by
    # the verifier (exit 0 or 1); `verify` never exits 3
    root, files = witness_drawing_files
    name, lines = base
    drawing, drawing_path = files[name]
    text = _edited(lines, edits)
    try:
        violation = _violation(drawing, parse_witness(text, drawing))
    except _INPUT_ERRORS:
        expected = 2
    else:
        assert violation is None or isinstance(violation, str)
        expected = 0 if violation is None else 1
    witness_path = root / "edited.wit"
    witness_path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", str(drawing_path), "--witness", str(witness_path)])
    assert code == expected
