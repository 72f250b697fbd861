#!/usr/bin/env python3
"""k-edge vectors and the crossing-number identities, family by family.

Every good drawing satisfies two exact identities tying its crossing
count to the k-edge vector taken relative to a reference face:

  cr = 3*C(n,4) - sum_k k*(n-2-k)*E_k
  cr = 2*sum_{k<=floor(n/2)-2} E_{<=<=k}
        - C(n,2)*floor((n-2)/2)/2 - [n even]*E_{<=<=floor(n/2)-2}

This script tabulates both for the convex and cylindrical families and a
few random rectilinear drawings, and shows how the vector changes when
the reference face moves.
"""

from kncross import (
    crossings_from_cumulative,
    crossings_from_k_edges,
    cumulative_sums,
    gen_convex,
    gen_cylindrical,
    gen_random_points,
    hill_number,
    k_edge_vector,
)


def show(label, drawing):
    vec = k_edge_vector(drawing)
    _, double = cumulative_sums(vec)
    eq3 = crossings_from_k_edges(drawing.n, vec)
    eq5 = crossings_from_cumulative(drawing.n, vec)
    ok = "ok" if eq3 == eq5 == drawing.crossings else "MISMATCH"
    print(f"{label:16s} cr={drawing.crossings:4d} H={hill_number(drawing.n):4d} "
          f"E={list(vec)} E<=<= {list(double)}  [{ok}]")


print("convex drawings: every K4 is crossed, so cr = C(n,4)")
for n in range(4, 9):
    show(f"convex K{n}", gen_convex(n))

print()
print("cylindrical drawings: cr meets the conjectured value H(n)")
for n in range(4, 13):
    show(f"cylindrical K{n}", gen_cylindrical(n))

print()
print("random rectilinear drawings (seeded, deterministic)")
for seed in range(4):
    show(f"random K7 #{seed}", gen_random_points(7, seed))

print()
print("the vector depends on the reference face; the identities never do:")
d = gen_convex(4)
for face in range(d.face_count):
    refd = d.with_reference(face)
    vec = k_edge_vector(refd)
    print(f"  crossed K4, face {face}: E={list(vec)} "
          f"cr(identity)={crossings_from_k_edges(refd.n, vec)}")
