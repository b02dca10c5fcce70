"""
Survey of symmetric networks
============================

For networks where all pairs share the same (M, N, d), feasibility has a
one-line answer: M + N - (K + 1) d >= 0. This script sweeps antenna
counts for a four-pair network, prints the margin next to the generic
rank test, and confirms they never disagree.
"""

from iafeas import NetworkConfig, generic_full_row_rank, symmetric_feasible

K = 4
print(f"K = {K} pairs, d streams each, margin = M + N - {K + 1}d")

for d in (1, 2):
    lo = 2 * d
    print(f"\nd = {d}: rows M = {lo}..6, cols N = {lo}..6"
          "  (+ feasible, - infeasible, * disagreement)")
    agree = 0
    total = 0
    for M in range(lo, 7):
        cells = []
        for N in range(lo, 7):
            cfg = NetworkConfig.symmetric(K, M, N, d)
            margin = M + N - (K + 1) * d
            cf = symmetric_feasible(cfg)
            rank = generic_full_row_rank(cfg, seed=0)
            ok = cf.feasible == rank.full_row_rank == (margin >= 0)
            total += 1
            agree += ok
            cells.append(("+" if margin >= 0 else "-") if ok else "*")
        print(f"  M={M}: " + " ".join(cells))
    print(f"  closed form and rank test agree on {agree}/{total} grid points")

# The margin is sharp: one antenna below the boundary flips the verdict.
boundary = NetworkConfig.symmetric(4, 5, 5, 2)
below = NetworkConfig.symmetric(4, 5, 4, 2)
print()
print(boundary.describe(), "margin 0:", symmetric_feasible(boundary).feasible)
print(below.describe(), "margin -1:", symmetric_feasible(below).feasible)
