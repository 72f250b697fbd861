#!/usr/bin/env python3
"""File formats, witness certificates, and SVG rendering.

Writes a small gallery into demos/out/: one drawing file per format, a
witness certificate round-tripped through its verifier, and an SVG picture
of each drawing.  The cylindrical K_9 is drawn from the map file written
here, which carries no coordinates: its picture is a layout of the map.
"""

import pathlib

from kncross import (
    bishell_witness_violation,
    check_bishellable,
    gen_convex,
    gen_cylindrical,
    gen_random_points,
    gen_twopage,
    parse,
    parse_witness,
    serialize,
    serialize_witness,
    svg_document,
)
from kncross.generators import twopage_all_top

out = pathlib.Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

convex = gen_convex(6)
cylinder = gen_cylindrical(9)
book = gen_twopage(twopage_all_top(6))
random7 = gen_random_points(7, 42)

for name, drawing, fmt in (
    ("k6_convex.points", convex, "points"),
    ("k9_cylindrical.map", cylinder, "map"),
    ("k6_twopage.2p", book, "twopage"),
    ("k7_random.points", random7, "points"),
):
    blob = serialize(drawing, fmt)
    (out / name).write_bytes(blob)
    again = parse(blob)
    stable = serialize(again, fmt) == blob
    print(f"wrote {name:22s} ({len(blob):5d} bytes, round-trip stable: {stable})")

witness = check_bishellable(cylinder, 2)
blob = serialize_witness(cylinder, witness)
(out / "k9.witness").write_bytes(blob)
reloaded = parse_witness(blob, cylinder)
print("witness round trip verifies:", bishell_witness_violation(cylinder, reloaded) is None)

for name, drawing in (("k6_convex.svg", convex),
                      ("k9_cylindrical.svg", parse((out / "k9_cylindrical.map").read_bytes())),
                      ("k6_twopage.svg", book),
                      ("k7_random.svg", random7)):
    (out / name).write_text(svg_document(drawing), encoding="utf-8")
    print("rendered", name)

print()
print("gallery written to", out)
