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

Files are written through `write_all`: a temporary file per target,
renamed over it only once every write has succeeded, so a failed write
leaves an existing file unchanged.

SVG pictures have one writer, `_picture`; each family gives it only its
edge samples, crossing marks, vertex positions and backdrop.
"""

from __future__ import annotations

import errno
import os
import re
from bisect import bisect_right
from fractions import Fraction
from math import atan2, cos, hypot, pi, sin, sqrt
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .drawing import (
    CylindricalGeometry,
    Drawing,
    MapError,
    PointsGeometry,
    TwoPageGeometry,
    build_drawing,
    orientation_bits,
)
from .geom import Point, circle_point, proper_intersection
from .planarize import planarize_points
from .generators import TwoPageSpec, gen_twopage, _side_crossing, _wrap_half
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
        renum: Dict[int, int] = {}
        for eid, _ in enumerate(drawing.edges):
            for k in drawing.edge_paths[eid]:
                if k not in renum:
                    renum[k] = len(renum)
        for eid, (u, v) in enumerate(drawing.edges):
            ids = " ".join(str(renum[k]) for k in drawing.edge_paths[eid])
            out.append(f"e {u} {v} :" + (" " + ids if ids else ""))
        for old, new in sorted(renum.items(), key=lambda kv: kv[1]):
            out.append(f"x {new} : {drawing.orientation_bits[old]}")
        ru, rv = drawing.face_dart(drawing.reference_face)
        out.append(f"ref {ru} {rv}")
        return ("\n".join(out) + "\n").encode()

    raise ValueError(f"unknown format {fmt!r}")


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
    """The SVG text of a drawing with geometric provenance.

    Map-format drawings carry no coordinates and are rejected.
    """
    geom = drawing.geometry
    if isinstance(geom, PointsGeometry):
        return _svg_points(drawing, geom)
    if isinstance(geom, TwoPageGeometry):
        return _svg_twopage(drawing, geom)
    if isinstance(geom, CylindricalGeometry):
        return _svg_cylindrical(drawing, geom)
    raise ValueError("map-format drawings carry no coordinates")


def write_all(outputs: List[Tuple[str, bytes]]) -> None:
    """Write every (path, data) pair or none.

    Each data goes to a temporary file in its target's directory, and the
    temporaries replace the targets only once every write has succeeded;
    on a failure they are removed, and every existing file is unchanged.
    """
    temps: List[str] = []
    replaced = 0
    try:
        for path, data in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            head, tail = os.path.split(path)
            temp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
            try:
                fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except OSError as exc:  # name the file asked for, not the temporary
                raise OSError(exc.errno, exc.strerror, path) from None
            temps.append(temp)
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
        for temp, (path, _) in zip(temps, outputs):
            os.replace(temp, path)
            replaced += 1
    finally:
        for temp in temps[replaced:]:
            os.remove(temp)


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


def _svg_cylindrical(drawing: Drawing, geom: CylindricalGeometry) -> str:
    angles = geom.angles
    outer = set(geom.outer)
    lid = [circle_point(u) for u in geom.lid_params]  # the map's lid points
    lid_xy = [(float(p.x), float(p.y)) for p in lid]

    def at(vertex: int) -> _XY:
        r = 2.0 if vertex in outer else 1.0
        ang = 2 * pi * float(angles[vertex])
        return (r * cos(ang), r * sin(ang))

    def lid_warp(circle: Sequence[int]):
        """The angle map of one lid, in turns: piecewise linear, from each
        vertex's lid point angle to its vertex angle (both run once around
        counterclockwise)."""
        lid_turns = [atan2(lid_xy[v][1], lid_xy[v][0]) / (2 * pi) for v in circle]
        a0, b0 = lid_turns[0], float(angles[circle[0]])
        xs = [(a - a0) % 1 for a in lid_turns] + [1.0]
        ys = [(float(angles[v]) - b0) % 1 for v in circle] + [1.0]

        def warp(turn: float) -> float:
            x = (turn - a0) % 1
            k = bisect_right(xs, x, 0, len(circle)) - 1
            return b0 + ys[k] + (x - xs[k]) * (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])

        return warp

    warps = {}
    for circle in (geom.outer, geom.inner):
        if circle:  # empty only when `_assemble_cylindrical` got no angles for it
            warps.update(dict.fromkeys(circle, lid_warp(circle)))

    def on_lid(vertex: int, p: _XY) -> _XY:
        """Point p of the unit disc of vertex's lid, in the picture: its angle
        warped, its radius kept on the inner lid and r taken to 3 - r on the
        outer one, which rings the outer rim."""
        ang = 2 * pi * warps[vertex](atan2(p[1], p[0]) / (2 * pi))
        r = 3.0 - hypot(*p) if vertex in outer else hypot(*p)
        return (r * cos(ang), r * sin(ang))

    def spiral(u: int, v: int) -> Tuple[Fraction, Fraction]:
        """Side edge u-v as the angle of its outer end and its turn from
        there to its inner end."""
        o, i = (u, v) if u in outer else (v, u)
        return angles[o], _wrap_half(angles[i] - angles[o])

    def side(angle: Fraction, turn: Fraction, t: float) -> _XY:
        """The point at parameter t of a side edge, from its outer end (t = 0,
        radius 2) to its inner end (t = 1, radius 1)."""
        ang = 2 * pi * (float(angle) + float(turn) * t)
        return ((2.0 - t) * cos(ang), (2.0 - t) * sin(ang))

    to = _transform([(-3.2, -3.2), (3.2, 3.2)], size=700)
    rims = [_circle(to((0.0, 0.0)), abs(to((r, 0.0))[0] - to((0.0, 0.0))[0]),
                    'fill="none" stroke="#ccc" stroke-width="0.8"') for r in (1.0, 2.0)]
    curves = []
    for (u, v) in drawing.edges:
        if (u in outer) == (v in outer):  # a lid chord: the map's straight chord, warped
            (x0, y0), (x1, y1) = lid_xy[u], lid_xy[v]
            curves.append([to(on_lid(u, (x0 + (x1 - x0) * k / 32, y0 + (y1 - y0) * k / 32)))
                           for k in range(33)])
        else:
            angle, turn = spiral(u, v)
            curves.append([to(side(angle, turn, k / 32)) for k in range(33)])
    marks = []
    for e1, e2 in zip(drawing.crossed_edges[::2], drawing.crossed_edges[1::2]):
        (u1, v1), (u2, v2) = drawing.edges[e1], drawing.edges[e2]
        if (u1 in outer) != (v1 in outer):  # side/side: exact parameter from the angles
            (a1, turn1), (a2, turn2) = spiral(u1, v1), spiral(u2, v2)
            t = float(_side_crossing(a1 - a2, turn1 - turn2))
            marks.append(to(side(a1, turn1, t)))
        else:  # two chords of one lid, crossing where the map's chords cross
            hit = proper_intersection(lid[u1], lid[v1], lid[u2], lid[v2])
            marks.append(to(on_lid(u1, (float(hit.x), float(hit.y)))))
    return _picture(700, rims, curves, marks, [to(at(v)) for v in range(drawing.n)])
