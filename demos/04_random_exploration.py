#!/usr/bin/env python3
"""Random rectilinear drawings, weak isomorphism, and the optimality gap.

Seeded random point sets give reproducible drawings.  Deduplicating them
up to weak isomorphism (equal rotation systems up to relabelling and
global reversal) shows how few combinatorially distinct small drawings
random sampling visits, and the crossing histogram shows the gap between
typical rectilinear drawings and the conjectured optimum H(n).
"""

from collections import Counter

from kncross import (
    check_bishellable,
    gen_random_points,
    hill_number,
    rotation_key,
)

n, trials = 6, 60
histogram = Counter()
distinct = {}  # (crossings, canonical rotation key) -> first seed
for seed in range(trials):
    drawing = gen_random_points(n, seed)
    histogram[drawing.crossings] += 1
    key = (drawing.crossings, rotation_key(drawing.vertex_rotations))
    distinct.setdefault(key, seed)

print(f"{trials} seeded random drawings of K{n} (H({n}) = {hill_number(n)})")
for crossings in sorted(histogram):
    bar = "#" * histogram[crossings]
    print(f"  cr={crossings:2d}  {bar}")
print(f"distinct up to weak isomorphism: {len(distinct)}")

optimal = [seed for seed in range(trials)
           if gen_random_points(n, seed).crossings == hill_number(n)]
print(f"seeds achieving H({n}) rectilinearly: {optimal if optimal else 'none'}")

print()
print("bishellability of the first few drawings:")
for seed in range(5):
    drawing = gen_random_points(n, seed)
    print(f"  seed {seed}: cr={drawing.crossings} "
          f"bishellable={check_bishellable(drawing) is not None}")
