"""Command line interface.

Exit codes: 0 success / property holds, 1 clean negative answer (for
example "not bishellable"), 2 input or usage errors, 3 internal error: a
search produced a witness the verifier refuses.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import comb
from typing import List, Optional

from .drawing import rotation_key
from .generators import (
    _random_arrangement,
    gen_convex,
    gen_cylindrical,
    gen_random_points,
    gen_twopage,
    twopage_all_top,
)
from .io import parse, parse_witness, serialize, serialize_witness, svg_document, write_file
from .kedges import (
    crossings_from_cumulative,
    crossings_from_k_edges,
    cumulative_sums,
    hill_number,
    k_edge_vector,
)
from .shelling import (
    ShellWitness,
    WitnessInvalid,
    bishell_witness_violation,
    check_bishellable,
    check_s_shellable,
    shell_witness_violation,
)

# every refusal of bad input in the package is a ValueError
_INPUT_ERRORS = (ValueError, OSError)


def _refuse_same_file(path: str, other: str, names: str) -> None:
    """Refuse, before any work, two paths that name one file."""
    if os.path.realpath(path) == os.path.realpath(other):
        raise ValueError(f"{names} name the same file {path!r}")


def _load(path: str):
    with open(path, "rb") as fh:
        return parse(fh.read())


def _analyze(args) -> int:
    drawing = _load(args.file)
    vec = k_edge_vector(drawing)
    single, double = cumulative_sums(vec)
    eq3 = crossings_from_k_edges(drawing.n, vec)
    eq5 = crossings_from_cumulative(drawing.n, vec)
    identity = eq3 == eq5 == drawing.crossings
    # each crossing lies in exactly one K4, the one on its four endpoints
    # (construction refuses adjacent crossings), and a good K4 has at most
    # one crossing: the crossed K4s are the crossings
    crossed = drawing.crossings
    planar = comb(drawing.n, 4) - crossed
    if args.json:
        payload = {
            "n": drawing.n,
            "crossings": drawing.crossings,
            "h": hill_number(drawing.n),
            "k_edge_vector": list(vec),
            "e_le": list(single),
            "e_lele": list(double),
            "cr_from_k_edges": eq3,
            "cr_from_cumulative": eq5,
            "identity_pass": identity,
            "k4_planar": planar,
            "k4_crossed": crossed,
        }
        print(json.dumps(payload, indent=2))
    else:
        e = "[" + ",".join(str(x) for x in vec) + "]"
        verdict = "PASS" if identity else "FAIL"
        print(f"n={drawing.n} cr={drawing.crossings} H={hill_number(drawing.n)} "
              f"E={e} identity {verdict}")
        print("E<=  = [" + ",".join(str(x) for x in single) + "]")
        print("E<<= = [" + ",".join(str(x) for x in double) + "]")
        print(f"eq3={eq3} eq5={eq5}")
        print(f"K4 census: planar={planar} crossed={crossed}")
    return 0


def _violation(drawing, witness) -> Optional[str]:
    """The independent verifier's first violated condition, or None."""
    if isinstance(witness, ShellWitness):
        return shell_witness_violation(drawing, witness)
    return bishell_witness_violation(drawing, witness)


def _check(args) -> int:
    if args.witness_out:
        _refuse_same_file(args.witness_out, args.file, "--witness-out and the drawing")
    drawing = _load(args.file)
    face = drawing.face_left_of(*args.face) if args.face else None
    search = check_bishellable if args.mode == "bishell" else check_s_shellable
    witness = search(drawing, args.s, face=face)
    if witness is None:
        print("no witness (exhaustive search)")
        return 1
    # the independent verifier re-checks every witness before it is emitted
    violation = _violation(drawing, witness)
    if violation is not None:
        raise WitnessInvalid(violation)
    blob = serialize_witness(drawing, witness)
    if args.witness_out:
        write_file(args.witness_out, blob)
    sys.stdout.write(blob.decode())
    return 0


def _verify(args) -> int:
    drawing = _load(args.file)
    with open(args.witness, "rb") as fh:
        witness = parse_witness(fh.read(), drawing)
    violation = _violation(drawing, witness)
    if violation is None:
        print("witness verifies")
        return 0
    print(violation)
    return 1


def _generate(args) -> int:
    n = args.n
    if args.family == "convex":
        drawing, fmt = gen_convex(n), "points"
    elif args.family == "cylindrical":
        drawing, fmt = gen_cylindrical(n), "map"
    elif args.family == "random":
        drawing, fmt = gen_random_points(n, args.seed), "points"
    else:
        drawing, fmt = gen_twopage(twopage_all_top(n)), "twopage"
    write_file(args.out, serialize(drawing, fmt))
    print(f"cr={drawing.crossings} H={hill_number(drawing.n)}")
    return 0


def _hunt(args) -> int:
    if args.n < 3:
        raise ValueError(f"--n must be at least 3, got {args.n}")
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
    n = args.n
    if n == 8 or n >= 10:
        raise ValueError(
            f"--target optimal cannot match at n={n}: the rectilinear crossing "
            f"number of K_n exceeds H(n) at n = 8 and every n >= 10")
    hill = hill_number(n)
    found = []  # the seeds of the matches
    # one drawing per weak-iso class, named by its rotation key: the rotation
    # system of a good drawing fixes which edges cross (Kyncl 2011)
    seen = set()
    for seed in range(args.seed, args.seed + args.trials):
        # the class is read off the arrangement; only a match for -o gets a map
        _, arr = _random_arrangement(n, seed)
        key = rotation_key(arr.vertex_orders)
        if key in seen:
            continue
        seen.add(key)
        if arr.crossings == hill:
            found.append(seed)
    if args.out and found:
        write_file(args.out, serialize(gen_random_points(n, found[0]), "points"))
    print(f"trials={args.trials} distinct={len(seen)} matches={len(found)}")
    for seed in found:
        print(f"  seed={seed} cr={hill}")
    return 0


def _export_svg(args) -> int:
    _refuse_same_file(args.out, args.file, "-o and the drawing")
    drawing = _load(args.file)
    write_file(args.out, svg_document(drawing).encode("utf-8"))
    print(f"wrote {args.out}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args fills a fresh namespace every call
    parser = argparse.ArgumentParser(
        prog="kncross",
        description="good drawings of complete graphs: k-edges, crossing "
                    "identities, shellability and bishellability")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="k-edge vector, identities, K4 census")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_analyze)

    p = sub.add_parser("check", help="search for a shell/bishell witness")
    p.add_argument("file")
    p.add_argument("--mode", choices=("shell", "bishell"), required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--face", nargs=2, type=int, metavar=("U", "V"))
    p.add_argument("--witness-out", default=None)
    p.set_defaults(func=_check)

    p = sub.add_parser("verify", help="verify a witness certificate")
    p.add_argument("file")
    p.add_argument("--witness", required=True)
    p.set_defaults(func=_verify)

    p = sub.add_parser("generate", help="write a drawing of a canonical family")
    p.add_argument("family", choices=("convex", "cylindrical", "twopage", "random"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_generate)

    p = sub.add_parser("hunt", help="exploratory random search, never exhaustive "
                                    "(n = 3..7 or 9)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", choices=("optimal",), default="optimal")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_hunt)

    p = sub.add_parser("export-svg", help="render any drawing file as SVG")
    p.add_argument("file")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_export_svg)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WitnessInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
