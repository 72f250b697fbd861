#!/usr/bin/env python3
"""Shellability and bishellability search, witnesses, and diagnostics.

A shell witness orders vertices so two-sided deletion keeps each decided
pair on the face containing the reference; a bishell witness grows two
such sequences from one face with complementary prefixes disjoint.
Bishellability at order floor(n/2)-2 forces the double-cumulative k-edge
bounds and hence at least H(n) crossings, which this script checks live.
"""

from math import comb

from kncross import (
    bishell_witness_violation,
    check_bishellable,
    check_s_shellable,
    cumulative_sums,
    gen_convex,
    gen_cylindrical,
    hill_number,
    invariant_edge_report,
    k_edge_vector,
    shell_to_bishell,
    shell_witness_violation,
    sufficient_conditions,
    truncate_bishell,
)

d = gen_convex(8)
print("convex K8: searching a shell witness of length floor(n/2) = 4")
shell = check_s_shellable(d, 4)
print("  found:", shell, "verifies:", shell_witness_violation(d, shell) is None)

bishell = shell_to_bishell(shell)
print("  transformed to order", bishell.order, "bishell witness:", bishell)
print("  verifies:", bishell_witness_violation(d, bishell) is None)
chain = bishell
while chain.order > 0:
    chain = truncate_bishell(chain)
    print(f"  truncated to order {chain.order}: verifies",
          bishell_witness_violation(d, chain) is None)

print()
print("cylindrical drawings are bishellable; the k-edge bounds follow:")
for n in (9, 10, 11):
    d = gen_cylindrical(n)
    s = n // 2 - 2
    witness = check_bishellable(d, s)
    sums = cumulative_sums(k_edge_vector(d)).double
    bounds = [3 * comb(k + 3, 3) for k in range(s + 1)]
    print(f"  K{n}: witness a={witness.a_seq} b={witness.b_seq} "
          f"E<=<= {list(sums[:s+1])} >= {bounds} "
          f"cr={d.crossings} >= H={hill_number(n)}")

print()
print("proof-accounting diagnostics for the K11 witness:")
d11 = gen_cylindrical(11)
w11 = check_bishellable(d11, 3)
report = invariant_edge_report(d11, w11)
k = report.order
print(f"  a0 contribution {report.a0_contribution} >= {2 * comb(k + 2, 2)}; "
      f"invariant edges {report.invariant_count} >= {comb(k + 2, 2)}")

print()
print("sufficient conditions from uncrossed subgraphs:")
for label, drawing in (("convex K8", gen_convex(8)),
                       ("cylindrical K10", gen_cylindrical(10))):
    sc = sufficient_conditions(drawing)
    print(f"  {label}: longest uncrossed cycle {sc.uncrossed_cycle_len}, "
          f"path {sc.uncrossed_path_len} -> shellable={sc.implies_shellable}, "
          f"bishellable={sc.implies_bishellable}")
