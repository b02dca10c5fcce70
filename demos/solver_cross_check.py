"""
Numerical solvers as a cross check
==================================

The verdict pipeline never needs a solver: counting, allocation and rank
settle everything it claims. But actually constructing aligning
transceivers is the most convincing corroboration there is, so this
script runs both iterations on a feasible ring and watches them fail
honestly on an infeasible one.
"""

import numpy as np

from iafeas import NetworkConfig, alt_min, gauss_newton_multistart, sample_channels, verify_ia

ring = NetworkConfig.symmetric(3, 2, 2, 1)
channels = sample_channels(ring, seed=0, include_direct=True)

# Alternating minimization: orthonormal filters, leakage is monotone.
res = alt_min(channels, seed=1)
h = res.leakage_history
print("alt_min on", ring.describe())
print("  converged:", res.converged, "after", res.iterations, "sweeps")
print("  leakage head:", np.array2string(np.array(h[:3]), precision=3))
print("  leakage tail:", np.array2string(np.array(h[-3:]), precision=3))
check = verify_ia(channels, res.transceivers, tol=1e-4)
print("  aligned:", check.aligned, " direct links full rank:", check.rank_ok)

# Gauss-Newton on the reduced variables: quadratic once it gets close.
gn = gauss_newton_multistart(sample_channels(ring, seed=0), starts=3, seed=0)
print("gauss_newton residual:", f"{gn.residual_norm:.2e}",
      "in", gn.iterations, "steps")

# The overloaded ring has no solution to find. Both solvers stall at a
# clearly positive floor, which corroborates the counting witness, and
# stop once it has stopped falling.
ring4 = NetworkConfig.symmetric(4, 2, 2, 1)
channels4 = sample_channels(ring4, seed=0, include_direct=True)
stall = alt_min(channels4, seed=0)
gn4 = gauss_newton_multistart(sample_channels(ring4, seed=0), starts=3, seed=0)
print()
print("alt_min on", ring4.describe(), "stalls at leakage", f"{stall.leakage:.3f}",
      "after", stall.iterations, "steps:", stall.note)
print("gauss_newton stalls at residual", f"{gn4.residual_norm:.3f}",
      "after", gn4.iterations, "steps:", gn4.note)
print("neither converges:", not stall.converged and not gn4.converged)
