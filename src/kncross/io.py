"""Drawing and witness files, plus SVG export.

Three line-based UTF-8 formats share the header ``kncross v1`` and a
``format points|twopage|map`` tag; '#' starts a comment.  The map format
is the minimal information determining a spherical embedding: one
counterclockwise rotation line per real vertex, the crossing ids along
every edge path (from the smaller endpoint to the larger), one
orientation bit per crossing, in `build_drawing`'s convention, and a
reference dart.  Reference faces and witness faces are named by a
directed pair ``u v``, read with `Drawing.face_left_of(u, v)` and
written with `Drawing.face_dart`: the face to the left of the first dart
of that edge leaving u.  A file that breaks its format is refused with
a `ParseError`, a `ValueError` that names the line; a map only where
`build_drawing`, its one judge, blames one line (see `_parse_map`).

Serialization is canonical (crossings renumbered by first appearance
along lexicographic edges, rotations started at the smallest neighbor,
reduced rationals printed as p/q), so equal maps produce equal bytes.

Files are written through `write_file`: a temporary file beside the
target, renamed over it only once the write has succeeded, so a failed
write leaves an existing file unchanged.

Every drawing has a picture, and SVG pictures have one writer,
`_picture`.  Point sets and two-page books draw their own geometry; any
other drawing, a map file's among them, is drawn from its map alone, as
a Tutte layout of its planarization (`_svg_map`).
"""

from __future__ import annotations

import errno
import os
import re
from collections import Counter
from fractions import Fraction
from math import cos, fsum, pi, sin, sqrt
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .drawing import (
    Drawing,
    MapError,
    PointsGeometry,
    TwoPageGeometry,
    build_drawing,
    orientation_bits,
)
from .geom import Point, proper_intersection
from .planarize import planarize_points
from .generators import TwoPageSpec, gen_twopage
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
           truncated: str) -> List[Tuple[int, str]]:
    """The numbered non-blank lines of a file, comments stripped; the first
    must be `magic`, and fewer than three lines are refused as `truncated`."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line))
    if not out or out[0][1] != magic:
        raise ParseError(out[0][0] if out else 1, f"expected {magic!r}")
    if len(out) < 3:
        raise ParseError(1, truncated)
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
    fmt_no, fmt_line = lines[1]
    parts = fmt_line.split()
    if len(parts) != 2 or parts[0] != "format":
        raise ParseError(fmt_no, "expected 'format points|twopage|map'")
    fmt = parts[1]
    no, n_line = lines[2]
    nparts = n_line.split()
    if len(nparts) != 2 or nparts[0] != "n":
        raise ParseError(no, "expected 'n <int>'")
    n = _int(nparts[1], no)
    if n < 0:
        raise ParseError(no, f"negative vertex count {n}")
    parse_body = {"points": _parse_points, "twopage": _parse_twopage,
                  "map": _parse_map}.get(fmt)
    if parse_body is None:
        raise ParseError(fmt_no, f"unknown format {fmt!r}")
    return parse_body(n, lines[3:])


def _parse_points(n: int, body: List[Tuple[int, str]]) -> Drawing:
    points: Dict[int, Point] = {}
    for no, line in body:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "v":
            raise ParseError(no, "expected 'v <id> <p/q> <p/q>'")
        vid = _int(parts[1], no)
        if not 0 <= vid < n or vid in points:
            raise ParseError(no, f"bad or repeated vertex id {vid}")
        points[vid] = Point(_fraction(parts[2], no), _fraction(parts[3], no))
    if len(points) != n:
        raise ParseError(body[-1][0] if body else 4, "missing vertex lines")
    return planarize_points([points[i] for i in range(n)])


def _parse_twopage(n: int, body: List[Tuple[int, str]]) -> Drawing:
    order: Optional[Tuple[int, ...]] = None
    pages: Dict[Tuple[int, int], str] = {}
    for no, line in body:
        parts = line.split()
        if parts[0] == "order":
            if order is not None:
                raise ParseError(no, "duplicate order line")
            order = _ints(parts[1:], no)
            if len(order) != n or sorted(order) != list(range(n)):
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
            raise ParseError(no, f"unexpected line {line!r}")
    if order is None:
        raise ParseError(body[0][0] if body else 4, "order line missing or invalid")
    if len(pages) != n * (n - 1) // 2:
        raise ParseError(body[-1][0] if body else 4, "missing edge lines")
    return gen_twopage(TwoPageSpec(order=order, pages=pages))


def _parse_map(n: int, body: List[Tuple[int, str]]) -> Drawing:
    """The body of a map file: each line checked alone, then the counts,
    then `build_drawing` judges the map.  A `MapError` is named at its
    part's line, of several faults the part met first (in a canonical
    file the first in file order); an `x` id out of range at its first
    line; a bit by `_refuse_bad_bit`; any other refusal at no line."""
    c: Optional[int] = None
    rotations: Dict[int, Tuple[int, ...]] = {}
    paths: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    bits: Dict[int, str] = {}
    ref: Optional[Tuple[int, int]] = None
    for no, line in body:
        parts = line.split()
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
            raise ParseError(no, f"unexpected line {line!r}")
    last = body[-1][0] if body else 4
    if c is None:
        raise ParseError(last, "missing crossing count")
    # counts first: a header count far beyond the file's lines must not
    # size a list
    if len(rotations) != n or sorted(rotations) != list(range(n)):
        raise ParseError(last, "missing rotation lines")
    if len(bits) != c or sorted(bits) != list(range(c)):
        k = next((k for k in bits if not 0 <= k < c), None)  # in file order
        if k is not None:
            raise ParseError(_line_of(body, ("x", k)), f"crossing id {k} out of range")
        raise ParseError(last, "missing orientation lines")
    if ref is None:
        raise ParseError(last, "missing ref line")
    if len(paths) != n * (n - 1) // 2:  # the lines are in range and distinct
        raise ParseError(last, "missing edge lines")
    rots = [rotations[u] for u in range(n)]
    try:
        return build_drawing(n, paths, [bits[k] for k in range(c)], rots, ref)
    except MapError as exc:
        raise ParseError(_line_of(body, exc.part), str(exc)) from None
    except ValueError:
        _refuse_bad_bit(n, paths, bits, rots, ref, body)
        raise


def _line_of(body: List[Tuple[int, str]], part: Tuple[object, ...]) -> int:
    """The number of the map line of `part`, a `MapError.part` or ("x", k):
    the line of the part's kind whose leading ids are the part's."""
    kind, *ids = part
    return next(no for no, line in body if (parts := line.split())[0] == kind
                and list(map(int, parts[1:len(part)])) == ids)


def _refuse_bad_bit(n: int, paths: Dict[Tuple[int, int], Tuple[int, ...]],
                    bits: Dict[int, str], rotations: List[Tuple[int, ...]],
                    ref: Tuple[int, int], body: List[Tuple[int, str]]) -> None:
    """Raise a ParseError at the first `x` line whose bit differs from the
    one the rotations fix (`orientation_bits`), only when the map builds
    with the rotations' bits, so exactly when changing bits alone makes it
    a good drawing; a rotation or path fault keeps the build's refusal."""
    try:
        fixed = orientation_bits(n, paths, rotations)
        drawing = build_drawing(n, paths, fixed, rotations, ref)
    except ValueError:
        return
    if drawing.crossings < len(bits):  # an id no path names: no bit can fix it
        return
    for k, bit in bits.items():  # in file order
        if bit != fixed[k]:
            e, f = drawing.crossed_edges[2 * k:2 * k + 2]
            ends = " ".join(map(str, sorted(drawing.edges[e] + drawing.edges[f])))
            raise ParseError(_line_of(body, ("x", k)), f"orientation of crossing {k} "
                                                       f"disagrees with the rotations at {ends}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize(drawing: Drawing, fmt: str) -> bytes:
    """Canonical byte serialization in the requested format."""
    if fmt == "points":
        geom = drawing.geometry
        if not isinstance(geom, PointsGeometry):
            raise ValueError("drawing has no point coordinates")
        out = [MAGIC, "format points", f"n {drawing.n}"]
        for i, p in enumerate(geom.points):
            out.append(f"v {i} {_frac_str(p.x)} {_frac_str(p.y)}")
        return ("\n".join(out) + "\n").encode()

    if fmt == "twopage":
        geom = drawing.geometry
        if not isinstance(geom, TwoPageGeometry):
            raise ValueError("drawing has no 2-page structure")
        out = [MAGIC, "format twopage", f"n {drawing.n}"]
        out.append("order " + " ".join(str(v) for v in geom.order))
        for (u, v), page in geom.pages:
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
    """Parse a witness certificate; the face is resolved on `drawing`."""
    lines = _lines(data, WITNESS_MAGIC, "truncated witness")
    no, kind = lines[1]
    if kind not in ("shell", "bishell"):
        raise ParseError(no, f"unknown witness kind {kind!r}")
    no, face_line = lines[2]
    parts = face_line.split()
    if len(parts) != 3 or parts[0] != "face":
        raise ParseError(no, "expected 'face <u> <v>'")
    fu, fv = _int(parts[1], no), _int(parts[2], no)
    try:
        face = drawing.face_left_of(fu, fv)
    except ValueError as exc:  # a bad dart, named at its line
        raise ParseError(no, str(exc)) from None

    seqs: Dict[str, Tuple[int, ...]] = {}
    for no, line in lines[3:]:
        parts = line.split()
        if len(parts) < 2 or parts[0] not in ("v:", "a:", "b:"):
            raise ParseError(no, f"unexpected line {line!r}")
        key = parts[0][0]
        if key in seqs:
            raise ParseError(no, f"duplicate {parts[0]} line")
        seq = _ints(parts[1:], no)
        if len(set(seq)) != len(seq):
            raise ParseError(no, f"duplicate vertex in {parts[0]} sequence")
        for v in seq:
            if not 0 <= v < drawing.n:
                raise ParseError(no, f"vertex {v} out of range")
        seqs[key] = seq

    if kind == "shell":
        if set(seqs) != {"v"}:
            raise ParseError(lines[-1][0], "shell witness needs exactly a v: line")
        return ShellWitness(face=face, seq=seqs["v"])
    if set(seqs) != {"a", "b"}:
        raise ParseError(lines[-1][0], "bishell witness needs a: and b: lines")
    if len(seqs["a"]) != len(seqs["b"]):
        raise ParseError(lines[-1][0], "a: and b: must have equal length")
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
    x0, y1 = min(xs), max(ys)

    def to_screen(p: _XY) -> _XY:
        return (margin + (p[0] - x0) * scale, margin + (y1 - p[1]) * scale)

    return to_screen


def svg_document(drawing: Drawing) -> str:
    """The SVG text of any drawing: its points or its two-page book where it
    has them, otherwise a layout of its map (`_svg_map`)."""
    geom = drawing.geometry
    if isinstance(geom, PointsGeometry):
        return _svg_points(drawing, geom)
    if isinstance(geom, TwoPageGeometry):
        return _svg_twopage(drawing, geom)
    return _svg_map(drawing)


def write_file(path: str, data: bytes) -> None:
    """Write `data` to `path`, or leave an existing file unchanged.

    The data goes to a temporary file in the target's directory, which
    replaces the target only once the write has succeeded and is removed
    on a failure.  Errors name `path`, not the temporary.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    head, tail = os.path.split(path)
    temp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(temp, path)
    except BaseException:
        os.remove(temp)
        raise


def _svg_points(drawing: Drawing, geom: PointsGeometry) -> str:
    pts = [(float(p.x), float(p.y)) for p in geom.points]
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
    pages = dict(geom.pages)
    curves = []
    for (u, v) in drawing.edges:
        a, b = sorted((pos[u], pos[v]))
        c, r = (a + b) / 2, (b - a) / 2
        sign = 1.0 if pages[(u, v)] == "T" else -1.0
        curves.append([to((c + r * cos(pi * k / 32), sign * r * sin(pi * k / 32)))
                       for k in range(33)])
    marks = []
    for e1, e2 in zip(drawing.crossed_edges[::2], drawing.crossed_edges[1::2]):
        (u1, v1), (u2, v2) = drawing.edges[e1], drawing.edges[e2]
        l1, r1 = sorted((pos[u1], pos[v1]))
        l2, r2 = sorted((pos[u2], pos[v2]))
        x = (l1 * r1 - l2 * r2) / ((l1 + r1) - (l2 + r2))
        y = sqrt(max(0.0, -(x - l1) * (x - r1)))
        sign = 1.0 if pages[(u1, v1)] == "T" else -1.0
        marks.append(to((x, sign * y)))
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
