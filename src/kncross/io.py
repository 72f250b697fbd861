"""Drawing and witness files, plus SVG export.

Three line-based UTF-8 formats share the header ``kncross v1`` and a
``format points|twopage|map`` tag.  Every reader takes a file's lines
from `_lines`: a leading byte-order mark is ignored, in bytes or text,
a line ends only at a line feed, a carriage return or the two together,
a byte that is not UTF-8 is refused at its line, '#' starts a comment
and a line is its tokens, split at any run of whitespace.  The map
format holds a spherical embedding: one counterclockwise rotation line
per real vertex, the crossing ids along every edge path (from the
smaller endpoint to the larger), one orientation bit per crossing, in
`build_drawing`'s convention, and a reference dart.  The bits are
redundant, as `build_drawing` derives them from the rotations; the
format keeps them, and a bit that is not the derived one is refused at
its line.  Reference faces and witness faces are named by a directed
pair ``u v``, read with `Drawing.face_left_of(u, v)` and written with
`Drawing.face_dart`: the face to the left of the first dart of that edge
leaving u.  A map file's `e` lines may come in any order; `_parse_map`
hands `build_drawing` their paths once in edge order, the shape a
`Drawing` stores.  A two-page file is written with one `e` line per
edge, in edge order, from the page of each edge its geometry holds;
read, its `e` lines too may come in any order, either way round, and
`_parse_twopage` hands `gen_twopage` their pages once in edge order, the
shape a `TwoPageSpec` holds.  Points and twopage files hold only the
unbounded reference face: `serialize` refuses a drawing referenced by
another face, found by the rule its builder uses
(`planarize._points_reference`, `generators._book_reference`), and
points to the map format.  A file that breaks its format is refused with
a `ParseError`, a `ValueError` that names the line; a map only where
`build_drawing`, its one judge, blames one line (see `_parse_map`).
A witness file is judged the same way: `parse_witness` reads its lines
and the face, and the verifier that replays the witness is its one
judge, which refuses a repeated vertex, a vertex out of range and
unequal `a:` and `b:` sequences.

Serialization is canonical (crossings renumbered by first appearance
along lexicographic edges, rotations started at the smallest neighbor,
reduced rationals printed as p/q), so equal maps produce equal bytes.

Files are written through `write_file`: a temporary file beside the
target, its symbolic links resolved, renamed over it only once the write
has succeeded, so a failed write leaves an existing file unchanged.

Every drawing has a picture, and SVG pictures have one writer,
`_picture`.  Point sets and two-page books draw their own geometry; any
other drawing, a map file's among them, is drawn from its map alone, as
a Tutte layout of its planarization (`_svg_map`).  Pictures are drawn in
floats: a point set with a coordinate too large for a float, or whose
span does not scale to the canvas as a finite float, is refused with a
`ValueError`, where it would raise `OverflowError` or write `nan`.
"""

from __future__ import annotations

import errno
import os
import re
from collections import Counter
from fractions import Fraction
from math import cos, fsum, isfinite, pi, sin, sqrt
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .drawing import (
    Drawing,
    MapError,
    PointsGeometry,
    TwoPageGeometry,
    _is_permutation,
    build_drawing,
    edge_list,
)
from .geom import Point, proper_intersection
from .planarize import _points_reference, planarize_points
from .generators import TwoPageSpec, _book_reference, gen_twopage
from .shelling import BishellWitness, ShellWitness

MAGIC = "kncross v1"
WITNESS_MAGIC = "kncross-witness v1"


class ParseError(ValueError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


# ---------------------------------------------------------------------------
# low-level line handling
# ---------------------------------------------------------------------------


def _lines(data: Union[bytes, str], magic: str,
           truncated: str) -> List[Tuple[int, List[str]]]:
    """The one text layer of every reader: the number and the tokens of each
    line that has any, comments stripped, a leading byte-order mark ignored.
    A line ends only at a line feed, a carriage return or the two together,
    not at the other breaks `str.splitlines` knows; bytes that are not
    UTF-8 are refused at the line of the first bad byte, counted by the same
    line ends.  The first must read `magic`; fewer than three are refused
    as `truncated`."""
    try:
        text = (data.decode() if isinstance(data, bytes) else data).removeprefix("\ufeff")
    except UnicodeDecodeError as exc:  # bytes: 1 + the line ends before the bad byte
        line = len(re.split(rb"\r\n|\r|\n", data[:exc.start]))
        raise ParseError(line, f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})") from None
    out = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for no, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            out.append((no, tokens))
    if not out or " ".join(out[0][1]) != magic:
        raise ParseError(out[0][0] if out else 1, f"expected {magic!r}")
    if len(out) < 3:
        raise ParseError(out[0][0], truncated)
    return out


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _fraction(token: str, line: int) -> Fraction:
    """`p/q` or an integer, nothing else: `Fraction` alone would also take
    an exponent such as `1e10000000`, whose expansion can run for hours."""
    if not _RATIONAL.fullmatch(token):
        raise ParseError(line, f"bad rational {token!r}")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, f"bad rational {token!r}") from None


def _int(token: str, line: int) -> int:
    """`[+-]?[0-9]+`, nothing else: `int` alone would also take `1_0` and
    non-ASCII decimal digits.  A token has no whitespace, so with those
    two ruled out `int` takes exactly that syntax."""
    if token.isascii() and "_" not in token:
        try:
            return int(token)
        except ValueError:
            pass
    raise ParseError(line, f"bad integer {token!r}")


def _ints(tokens: Sequence[str], line: int) -> Tuple[int, ...]:
    """All tokens as integers, as `_int` takes them; a bad one is reported
    as `_int` reports it.  The tokens are screened together, once."""
    text = " ".join(tokens)
    if text.isascii() and "_" not in text:
        try:
            return tuple(map(int, tokens))
        except ValueError:
            pass
    return tuple(_int(token, line) for token in tokens)


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse(data: Union[bytes, str]) -> Drawing:
    """Parse any of the three drawing formats into a validated Drawing."""
    lines = _lines(data, MAGIC, "truncated header")
    (fmt_no, fmt), (no, count) = lines[1:3]
    if len(fmt) != 2 or fmt[0] != "format":
        raise ParseError(fmt_no, "expected 'format points|twopage|map'")
    if len(count) != 2 or count[0] != "n":
        raise ParseError(no, "expected 'n <int>'")
    n = _int(count[1], no)
    if n < 0:
        raise ParseError(no, f"negative vertex count {n}")
    parse_body = {"points": _parse_points, "twopage": _parse_twopage,
                  "map": _parse_map}.get(fmt[1])
    if parse_body is None:
        raise ParseError(fmt_no, f"unknown format {fmt[1]!r}")
    return parse_body(n, no, lines[3:])


def _parse_points(n: int, n_line: int, body: List[Tuple[int, List[str]]]) -> Drawing:
    points: Dict[int, Point] = {}
    for no, parts in body:
        if len(parts) != 4 or parts[0] != "v":
            raise ParseError(no, "expected 'v <id> <p/q> <p/q>'")
        vid = _int(parts[1], no)
        if not 0 <= vid < n or vid in points:
            raise ParseError(no, f"bad or repeated vertex id {vid}")
        points[vid] = Point(_fraction(parts[2], no), _fraction(parts[3], no))
    if len(points) != n:
        raise ParseError(body[-1][0] if body else n_line, "missing vertex lines")
    return planarize_points([points[i] for i in range(n)])


def _parse_twopage(n: int, n_line: int, body: List[Tuple[int, List[str]]]) -> Drawing:
    order: Optional[Tuple[int, ...]] = None
    pages: Dict[Tuple[int, int], str] = {}
    for no, parts in body:
        if parts[0] == "order":
            if order is not None:
                raise ParseError(no, "duplicate order line")
            order = _ints(parts[1:], no)
            if len(order) != n or not _is_permutation(order, range(n)):
                raise ParseError(no, "order line missing or invalid")
        elif parts[0] == "e":
            if len(parts) != 4 or parts[3] not in ("T", "B"):
                raise ParseError(no, "expected 'e <u> <v> <T|B>'")
            u, v = _int(parts[1], no), _int(parts[2], no)
            key = (min(u, v), max(u, v))
            if key[0] < 0 or key[1] >= n:
                raise ParseError(no, f"vertex {key[0] if key[0] < 0 else key[1]} out of range")
            if u == v or key in pages:
                raise ParseError(no, f"bad or repeated edge {u} {v}")
            pages[key] = parts[3]
        else:
            raise ParseError(no, f"unexpected line {' '.join(parts)!r}")
    if order is None:
        raise ParseError(body[0][0] if body else n_line, "order line missing or invalid")
    # the count first: a header count far beyond the file's lines must not
    # size a list
    if len(pages) != n * (n - 1) // 2:
        raise ParseError(body[-1][0], "missing edge lines")
    return gen_twopage(TwoPageSpec(order=order, pages=tuple([pages[e] for e in edge_list(n)])))


def _parse_map(n: int, n_line: int, body: List[Tuple[int, List[str]]]) -> Drawing:
    """The body of a map file: each line checked alone, then the counts,
    then `build_drawing` judges the map, which derives every bit.  A
    `MapError` is named at its part's line, of several faults the part
    met first (in a canonical file the first in file order); an `x` id
    out of range at its first line; any other refusal of the build at no
    line.  A map that builds is refused at its first `x` line, in file
    order, whose bit is not the derived one."""
    c: Optional[int] = None
    rotations: Dict[int, Tuple[int, ...]] = {}
    paths: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    bits: Dict[int, str] = {}
    ref: Optional[Tuple[int, int]] = None
    for no, parts in body:
        # orientation lines first: they are most of a map's lines
        if parts[0] == "x":
            if len(parts) != 4 or parts[2] != ":" or parts[3] not in ("+", "-"):
                raise ParseError(no, "expected 'x <k> : <+|->'")
            k = _int(parts[1], no)
            if k in bits:
                raise ParseError(no, f"duplicate orientation for crossing {k}")
            bits[k] = parts[3]
        elif parts[0] == "c":
            if c is not None or len(parts) != 2:
                raise ParseError(no, "bad crossing count line")
            c = _int(parts[1], no)
            if c < 0:
                raise ParseError(no, f"negative crossing count {c}")
        elif parts[0] == "rot":
            if len(parts) < 3 or parts[2] != ":":
                raise ParseError(no, "expected 'rot <u> : <neighbors>'")
            u = _int(parts[1], no)
            if not 0 <= u < n:
                raise ParseError(no, f"vertex {u} out of range")
            if u in rotations:
                raise ParseError(no, f"duplicate rotation for {u}")
            rotations[u] = _ints(parts[3:], no)
        elif parts[0] == "e":
            if len(parts) < 4 or parts[3] != ":":
                raise ParseError(no, "expected 'e <u> <v> : <crossings>'")
            u, v = _int(parts[1], no), _int(parts[2], no)
            if not u < v:
                raise ParseError(no, "edge lines must be ordered u < v")
            if u < 0 or v >= n:
                raise ParseError(no, f"vertex {u if u < 0 else v} out of range")
            if (u, v) in paths:
                raise ParseError(no, f"duplicate edge line {u} {v}")
            paths[(u, v)] = _ints(parts[4:], no)
        elif parts[0] == "ref":
            if ref is not None or len(parts) != 3:
                raise ParseError(no, "bad ref line")
            ref = (_int(parts[1], no), _int(parts[2], no))
        else:
            raise ParseError(no, f"unexpected line {' '.join(parts)!r}")
    last = body[-1][0] if body else n_line
    if c is None:
        raise ParseError(last, "missing crossing count")
    # counts first: a header count far beyond the file's lines must not
    # size a list
    if len(rotations) != n:  # the lines are in range and distinct
        raise ParseError(last, "missing rotation lines")
    ids = sorted(bits)  # the x lines' ints: one object per crossing id
    if len(bits) != c or ids != list(range(c)):
        k = next((k for k in bits if not 0 <= k < c), None)  # in file order
        if k is not None:
            raise ParseError(_line_of(body, ("x", k)), f"crossing id {k} out of range")
        raise ParseError(last, "missing orientation lines")
    if ref is None:
        raise ParseError(last, "missing ref line")
    if len(paths) != n * (n - 1) // 2:  # the lines are in range and distinct
        raise ParseError(last, "missing edge lines")
    try:
        drawing = build_drawing(n, [paths[edge] for edge in edge_list(n)], c,
                                [rotations[u] for u in range(n)], ref)
    except MapError as exc:
        raise ParseError(_line_of(body, exc.part), str(exc)) from None
    derived = drawing.orientation_bits
    for k, bit in bits.items():  # in file order
        if bit != derived[k]:
            e, f = drawing.crossed_edges[2 * k:2 * k + 2]
            ends = " ".join(map(str, sorted(drawing.edges[e] + drawing.edges[f])))
            raise ParseError(_line_of(body, ("x", k)), f"orientation of crossing {k} "
                                                       f"disagrees with the rotations at {ends}")
    # shared only now that every path id is checked: ids[-1] would read -1 as c-1
    return drawing._replace(edge_paths=tuple(tuple(map(ids.__getitem__, path))
                                             for path in drawing.edge_paths))


def _line_of(body: List[Tuple[int, List[str]]], part: Tuple[object, ...]) -> int:
    """The number of the map line of `part`, a `MapError.part` or ("x", k):
    the line of the part's kind whose leading ids are the part's."""
    kind, *ids = part
    return next(no for no, parts in body
                if parts[0] == kind and list(map(int, parts[1:len(part)])) == ids)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize(drawing: Drawing, fmt: str) -> bytes:
    """Canonical byte serialization in the requested format."""
    if fmt == "points":
        geom = drawing.geometry
        if not isinstance(geom, PointsGeometry):
            raise ValueError("drawing has no point coordinates")
        _check_unbounded_reference(drawing, _points_reference(geom.points), fmt)
        out = [MAGIC, "format points", f"n {drawing.n}"]
        for i, p in enumerate(geom.points):
            out.append(f"v {i} {_frac_str(p.x)} {_frac_str(p.y)}")
        return ("\n".join(out) + "\n").encode()

    if fmt == "twopage":
        geom = drawing.geometry
        if not isinstance(geom, TwoPageGeometry):
            raise ValueError("drawing has no 2-page structure")
        _check_unbounded_reference(drawing, _book_reference(geom.order, geom.pages), fmt)
        out = [MAGIC, "format twopage", f"n {drawing.n}"]
        out.append("order " + " ".join(str(v) for v in geom.order))
        for (u, v), page in zip(drawing.edges, geom.pages):
            out.append(f"e {u} {v} {page}")
        return ("\n".join(out) + "\n").encode()

    if fmt == "map":
        out = [MAGIC, "format map", f"n {drawing.n}", f"c {drawing.crossings}"]
        for u, rot in enumerate(drawing.vertex_rotations):
            out.append(f"rot {u} : " + " ".join(str(w) for w in rot))
        renum = _file_order(drawing)
        for eid, (u, v) in enumerate(drawing.edges):
            ids = " ".join(str(renum[k]) for k in drawing.edge_paths[eid])
            out.append(f"e {u} {v} :" + (" " + ids if ids else ""))
        for old, new in renum.items():
            out.append(f"x {new} : {drawing.orientation_bits[old]}")
        ru, rv = drawing.face_dart(drawing.reference_face)
        out.append(f"ref {ru} {rv}")
        return ("\n".join(out) + "\n").encode()

    raise ValueError(f"unknown format {fmt!r}")


def _check_unbounded_reference(drawing: Drawing, dart: Tuple[int, int], fmt: str) -> None:
    """Refuse to write a `fmt` file, which holds only the unbounded
    reference face, the face left of `dart`, of a drawing referenced by
    another face."""
    if drawing.reference_face != drawing.face_left_of(*dart):
        raise ValueError(f"the {fmt} format holds only the unbounded reference face, "
                         f"not face {drawing.reference_face}; write a map file")


def _file_order(drawing: Drawing) -> Dict[int, int]:
    """The number a map file gives each crossing id: the crossings in order
    of first appearance along the edges, in edge order, as the dict runs."""
    renum: Dict[int, int] = {}
    for path in drawing.edge_paths:
        for k in path:
            renum.setdefault(k, len(renum))
    return renum


# ---------------------------------------------------------------------------
# witness files
# ---------------------------------------------------------------------------


def parse_witness(data: Union[bytes, str],
                  drawing: Drawing) -> Union[ShellWitness, BishellWitness]:
    """Read a witness certificate; the face is resolved on `drawing`.

    The reader refuses, at its line, what breaks the format: the header,
    the kind, the face dart, a line other than `v:`, `a:` or `b:` with
    its integers, a repeated line, or the lines its kind lacks.  It
    reads the sequences and does not judge them: a repeated vertex, a
    vertex out of range and `a:` and `b:` of unequal length are refused
    by the verifier (`shelling.shell_witness_violation`,
    `bishell_witness_violation`), as `build_drawing` judges a map."""
    lines = _lines(data, WITNESS_MAGIC, "truncated witness")
    kind = " ".join(lines[1][1])
    if kind not in ("shell", "bishell"):
        raise ParseError(lines[1][0], f"unknown witness kind {kind!r}")
    no, parts = lines[2]
    if len(parts) != 3 or parts[0] != "face":
        raise ParseError(no, "expected 'face <u> <v>'")
    fu, fv = _int(parts[1], no), _int(parts[2], no)
    try:
        face = drawing.face_left_of(fu, fv)
    except ValueError as exc:  # a bad dart, named at its line
        raise ParseError(no, str(exc)) from None

    seqs: Dict[str, Tuple[int, ...]] = {}
    for no, parts in lines[3:]:
        if len(parts) < 2 or parts[0] not in ("v:", "a:", "b:"):
            raise ParseError(no, f"unexpected line {' '.join(parts)!r}")
        key = parts[0][0]
        if key in seqs:
            raise ParseError(no, f"duplicate {parts[0]} line")
        seqs[key] = _ints(parts[1:], no)

    if kind == "shell":
        if set(seqs) != {"v"}:
            raise ParseError(lines[-1][0], "shell witness needs exactly a v: line")
        return ShellWitness(face=face, seq=seqs["v"])
    if set(seqs) != {"a", "b"}:
        raise ParseError(lines[-1][0], "bishell witness needs a: and b: lines")
    return BishellWitness(face=face, a_seq=seqs["a"], b_seq=seqs["b"])


def serialize_witness(drawing: Drawing,
                      witness: Union[ShellWitness, BishellWitness]) -> bytes:
    fu, fv = drawing.face_dart(witness.face)
    shell = isinstance(witness, ShellWitness)
    out = [WITNESS_MAGIC, "shell" if shell else "bishell", f"face {fu} {fv}"]
    if shell:
        out.append("v: " + " ".join(str(v) for v in witness.seq))
    else:
        out.append("a: " + " ".join(str(v) for v in witness.a_seq))
        out.append("b: " + " ".join(str(v) for v in witness.b_seq))
    return ("\n".join(out) + "\n").encode()


# ---------------------------------------------------------------------------
# SVG export
# ---------------------------------------------------------------------------


_XY = Tuple[float, float]


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _polyline(pts: Sequence[_XY], color: str = "#222", width: float = 1.2) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    return (f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


def _circle(c: _XY, r: float, paint: str) -> str:
    return f'<circle cx="{_fmt(c[0])}" cy="{_fmt(c[1])}" r="{_fmt(r)}" {paint}/>'


def _picture(size: float, backdrop: List[str], curves: Sequence[Sequence[_XY]],
             marks: Sequence[_XY], vertices: Sequence[_XY]) -> str:
    """The SVG text of a size x size picture, all points on screen: on white,
    the `backdrop` elements, a polyline through each edge's samples in
    `curves`, a red dot per crossing mark and a labelled blue dot per vertex."""
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {_fmt(size)} {_fmt(size)}">',
             f'<rect width="{_fmt(size)}" height="{_fmt(size)}" fill="white"/>']
    parts += backdrop
    parts += [_polyline(samples) for samples in curves]
    parts += [_circle(c, 3.0, 'fill="#c22" stroke="none"') for c in marks]
    for v, c in enumerate(vertices):
        parts.append(_circle(c, 4.0, 'fill="#06c" stroke="none"'))
        parts.append(f'<text x="{_fmt(c[0] + 6)}" y="{_fmt(c[1] - 6)}" '
                     f'font-size="11" font-family="sans-serif">{v}</text>')
    return "\n".join(parts + ["</svg>"]) + "\n"


def _transform(points: Sequence[_XY], size: float = 600.0, margin: float = 40.0):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    span = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    scale = (size - 2 * margin) / span
    if not (isfinite(span) and isfinite(scale)):
        raise ValueError(f"cannot draw: a picture spanning {span!r} has no finite float scale")
    x0, y1 = min(xs), max(ys)

    def to_screen(p: _XY) -> _XY:
        return (margin + (p[0] - x0) * scale, margin + (y1 - p[1]) * scale)

    return to_screen


def svg_document(drawing: Drawing) -> str:
    """The SVG text of any drawing: its points or its two-page book where it
    has them, otherwise a layout of its map (`_svg_map`).  A `ValueError`
    names a coordinate or a span that floats cannot draw."""
    geom = drawing.geometry
    if isinstance(geom, PointsGeometry):
        return _svg_points(drawing, geom)
    if isinstance(geom, TwoPageGeometry):
        return _svg_twopage(drawing, geom)
    return _svg_map(drawing)


def write_file(path: str, data: bytes) -> None:
    """Write `data` to `path`, or leave an existing file unchanged.

    The target is `path` with its symbolic links resolved, so a link
    stays a link.  The data goes to a temporary file in the target's
    directory, which replaces the target only once the write has
    succeeded and is removed on a failure.  Errors name `path`, not the
    temporary.  An existing target that is not a regular file, such as a
    FIFO or a device, is opened and written straight through, which is
    not atomic; an error there names the target.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "wb") as fh:
            fh.write(data)
        return
    head, tail = os.path.split(target)
    temp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(temp, target)
    except BaseException:
        os.remove(temp)
        raise


def _svg_points(drawing: Drawing, geom: PointsGeometry) -> str:
    try:
        pts = [(float(p.x), float(p.y)) for p in geom.points]
    except OverflowError:
        raise ValueError("cannot draw: a vertex coordinate is too large for a float") from None
    to = _transform(pts)
    curves = [(to(pts[u]), to(pts[v])) for u, v in drawing.edges]
    marks = []
    for e1, e2 in zip(drawing.crossed_edges[::2], drawing.crossed_edges[1::2]):
        (a, b), (c, d) = drawing.edges[e1], drawing.edges[e2]
        hit = proper_intersection(*(geom.points[i] for i in (a, b, c, d)))
        marks.append(to((float(hit.x), float(hit.y))))
    return _picture(600, [], curves, marks, [to(p) for p in pts])


def _svg_twopage(drawing: Drawing, geom: TwoPageGeometry) -> str:
    pos = [float(x) for x in geom.positions]
    lo, hi = min(pos), max(pos)
    rad = (hi - lo) / 2 or 1.0
    to = _transform([(lo - 1, -rad - 1), (hi + 1, rad + 1)], size=700)
    spine = _polyline([to((lo - 0.5, 0)), to((hi + 0.5, 0))], "#bbb", 0.8)
    spans = [sorted((pos[u], pos[v])) for u, v in drawing.edges]
    signs = [1.0 if page == "T" else -1.0 for page in geom.pages]
    curves = []
    for (a, b), sign in zip(spans, signs):
        c, r = (a + b) / 2, (b - a) / 2
        curves.append([to((c + r * cos(pi * k / 32), sign * r * sin(pi * k / 32)))
                       for k in range(33)])
    marks = []
    for e1, e2 in zip(drawing.crossed_edges[::2], drawing.crossed_edges[1::2]):
        (l1, r1), (l2, r2) = spans[e1], spans[e2]
        x = (l1 * r1 - l2 * r2) / ((l1 + r1) - (l2 + r2))
        y = sqrt(max(0.0, -(x - l1) * (x - r1)))
        marks.append(to((x, signs[e1] * y)))
    return _picture(700, [spine], curves, marks, [to((x, 0)) for x in pos])


def _dot(a: Sequence[complex], b: Sequence[complex]) -> float:
    """The real part of the sum of conj(a_i) b_i, rounded once by `fsum`
    (`sum` rounds floats one way before Python 3.12 and another after)."""
    return fsum([c.real for c in map(mul, map(complex.conjugate, a), b)])


def _svg_map(drawing: Drawing) -> str:
    """A Tutte barycentric layout of the planarization (Tutte, "How to
    draw a graph", Proc. LMS 1963), which needs nothing but the map.

    The nodes are the vertices, then the crossings in file order
    (`_file_order`), so a drawing and its map file give the same bytes.
    The face with the most darts, the least id on ties, is the outer
    face.  Its boundary, walked with the face on the left of each dart,
    goes clockwise round a regular polygon, so each vertex's segments
    read its rotation counterclockwise.  Every other node sits at the
    mean of its neighbours: conjugate gradients, preconditioned by the
    node degrees, until the largest residual is at most 1e-10.
    """
    n = drawing.n
    node = {k: n + new for k, new in _file_order(drawing).items()}
    paths = [(u, *map(node.__getitem__, path), v)
             for (u, v), path in zip(drawing.edges, drawing.edge_paths)]
    darts = Counter(f for faces in drawing.dart_faces for f in faces)
    outer = max(range(drawing.face_count), key=darts.__getitem__)
    nbrs: List[List[int]] = [[] for _ in range(n + len(node))]
    after: Dict[int, int] = {}  # the next node round the outer face
    for path, faces in zip(paths, drawing.dart_faces):
        for i, (a, b) in enumerate(zip(path, path[1:])):
            nbrs[a].append(b)
            nbrs[b].append(a)
            if faces[2 * i] == outer:
                after[a] = b
            if faces[2 * i + 1] == outer:
                after[b] = a
    # removing one node leaves the planarization of K_n connected, so each
    # face is bounded by a cycle and `after` walks it once round
    ring = [min(after)]
    while after[ring[-1]] != ring[0]:
        ring.append(after[ring[-1]])
    pos = [0j] * len(nbrs)
    for i, a in enumerate(ring):  # clockwise from the top
        angle = pi / 2 - 2 * pi * i / len(ring)
        pos[a] = complex(cos(angle), sin(angle))
    on_ring = set(ring)
    free = [() if a in on_ring else nb for a, nb in enumerate(nbrs)]

    def laplacian(v: List[complex]) -> List[complex]:
        """Per node off the ring, its degree times its v less its
        neighbours' v; 0 on the ring."""
        out = []
        for va, nb in zip(v, free):
            acc = len(nb) * va
            for b in nb:
                acc -= v[b]
            out.append(acc)
        return out

    weight = [1 / len(nb) for nb in nbrs]
    r = [-x for x in laplacian(pos)]
    p = z = list(map(mul, r, weight))
    rz = _dot(r, z)
    while max(map(abs, r)) > 1e-10:
        q = laplacian(p)
        alpha = rz / _dot(p, q)
        pos = [x + alpha * y for x, y in zip(pos, p)]
        r = [x - alpha * y for x, y in zip(r, q)]
        z = list(map(mul, r, weight))
        rz, previous = _dot(r, z), rz
        p = [x + rz / previous * y for x, y in zip(z, p)]
    to = _transform([(-1.0, -1.0), (1.0, 1.0)], size=700)
    xy = [to((x.real, x.imag)) for x in pos]
    return _picture(700, [], [[xy[a] for a in path] for path in paths], xy[n:], xy[:n])
