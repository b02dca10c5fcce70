"""Shared test utilities: random configurations and brute-force oracles."""

from collections import deque
from dataclasses import dataclass

import numpy as np

from iafeas import (
    NetworkConfig,
    RankVerdict,
    ReducedTransceivers,
    generic_full_row_rank,
    properness_witness_from_links,
    residuals,
    scale_config,
    system_shape,
)
from iafeas.rank import _svd_rank

MAX_ENUM_PAIRS = 4


def random_config(rng, k_lo=2, k_hi=4, mn_hi=6, d_hi=2):
    """Random stream-admissible configuration (d_k <= min(M_k, N_k))."""
    K = int(rng.integers(k_lo, k_hi + 1))
    pairs = []
    for _ in range(K):
        M = int(rng.integers(1, mn_hi + 1))
        N = int(rng.integers(1, mn_hi + 1))
        d = int(rng.integers(1, min(M, N, d_hi) + 1))
        pairs.append((M, N, d))
    return NetworkConfig.from_tuples(pairs)


def cross_products(cfg, channels, tilde):
    """Reference computation of every U_k^H H_kj V_j via full matrices."""
    tx = tilde.reconstruct()
    out = {}
    for k, j in cfg.cross_pairs():
        out[(k, j)] = tx.U[k - 1].conj().T @ channels.cross[(k, j)] @ tx.V[j - 1]
    return out


def stacked_residual_oracle(cfg, channels, tilde):
    """Row-ordered residual vector assembled from the reference products."""
    prods = cross_products(cfg, channels, tilde)
    rows = []
    for k, j in cfg.cross_pairs():
        rows.append(prods[(k, j)].ravel())
    return np.concatenate(rows) if rows else np.zeros(0, dtype=complex)


def fd_jacobian(cfg, channels, tilde, h=1e-4):
    """Central-difference Jacobian of the residual map.

    The residual is polynomial in the stored variables (holomorphic), so a
    real step recovers the complex derivative up to O(h^2) rounding.
    """
    x0 = tilde.to_vector()
    C, V = system_shape(cfg)
    J = np.zeros((C, V), dtype=complex)
    for i in range(V):
        e = np.zeros_like(x0)
        e[i] = h
        fp = residuals(cfg, channels, ReducedTransceivers.from_vector(cfg, x0 + e))
        fm = residuals(cfg, channels, ReducedTransceivers.from_vector(cfg, x0 - e))
        J[:, i] = (fp - fm) / (2 * h)
    return J


def gf_rank_reference(matrix, p):
    """Rank over GF(p) by plain column-by-column Gaussian elimination.

    Independent of the blocked kernel: whole-row int64 updates, no float
    arithmetic, no recursion. Residues stay below p < 2**31, so every
    product fits in int64.
    """
    A = np.mod(np.asarray(matrix), p).astype(np.int64)
    m, n = A.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        pivots = np.nonzero(A[r:, c])[0]
        if pivots.size == 0:
            continue
        i = r + int(pivots[0])
        A[[r, i]] = A[[i, r]]
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        rows = r + 1 + np.nonzero(A[r + 1 :, c])[0]
        A[rows] = (A[rows] - A[rows, c][:, None] * A[r][None, :]) % p
        r += 1
    return r


def trial_division_is_prime(n):
    """Primality by trial division, the slow and obvious oracle."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def max_allocation(cfg):
    """Most constraints that fit within the stream caps, by augmenting paths.

    Max-flow from a source through each constraint (k, j, p, q) to its
    receive stream ("r", k, p) or transmit stream ("t", j, q), then to a
    sink with the stream's cap. Each constraint is placed by a breadth-first
    search over streams that may pass a placed constraint on to its other
    stream; standard library only, independent of the package's engine.
    A capacity-respecting allocation exists when this equals the number of
    constraints.
    """
    cap = {}
    for k in range(1, cfg.K + 1):
        for s in range(1, cfg.d(k) + 1):
            cap[("r", k, s)] = cfg.N(k) - cfg.d(k)
            cap[("t", k, s)] = cfg.M(k) - cfg.d(k)
    held = {cell: [] for cell in cap}

    def ends(c):
        return ("r", c[0], c[2]), ("t", c[1], c[3])

    placed = 0
    for k, j in cfg.cross_pairs():
        for p in range(1, cfg.d(k) + 1):
            for q in range(1, cfg.d(j) + 1):
                new = (k, j, p, q)
                came = {cell: (new, None) for cell in ends(new)}
                queue = deque(came)
                while queue:
                    cell = queue.popleft()
                    if len(held[cell]) < cap[cell]:
                        while cell is not None:
                            c, prev = came[cell]
                            held[cell].append(c)
                            if prev is not None:
                                held[prev].remove(c)
                            cell = prev
                        placed += 1
                        break
                    for c in held[cell]:
                        r_cell, t_cell = ends(c)
                        other = t_cell if cell == r_cell else r_cell
                        if other not in came:
                            came[other] = (c, cell)
                            queue.append(other)
    return placed


def numeric_rank(matrix):
    """Numerical rank via singular values, as numeric-mode rank tests count it."""
    rank, _ = _svd_rank(matrix)
    return rank


def enumerate_properness_violation(cfg):
    """Exhaustive properness scan over all link subsets. K <= 4 only.

    Ground truth for cross-checking the transfer engine: walks
    all 2^(K(K-1)) subsets with bitmask lookup tables. Returns None when
    every subset is proper, else the first violating subset's witness.
    """
    if cfg.K > MAX_ENUM_PAIRS:
        raise ValueError(
            f"exhaustive link-subset scan is exponential; capped at K = {MAX_ENUM_PAIRS}"
        )
    pairs = tuple(cfg.cross_pairs())
    n = len(pairs)
    if n == 0:
        return None
    size = 1 << n
    masks = np.arange(size, dtype=np.int64)
    rx_mask = np.zeros(size, dtype=np.int64)
    tx_mask = np.zeros(size, dtype=np.int64)
    rhs = np.zeros(size, dtype=np.int64)
    for i, (k, j) in enumerate(pairs):
        sel = ((masks >> i) & 1) == 1
        rx_mask[sel] |= 1 << (k - 1)
        tx_mask[sel] |= 1 << (j - 1)
        rhs[sel] += cfg.d(k) * cfg.d(j)

    K = cfg.K
    tab_rx = np.zeros(1 << K, dtype=np.int64)
    tab_tx = np.zeros(1 << K, dtype=np.int64)
    for mask in range(1, 1 << K):
        low = mask & -mask
        i = low.bit_length()
        rest = mask ^ low
        tab_rx[mask] = tab_rx[rest] + cfg.d(i) * (cfg.N(i) - cfg.d(i))
        tab_tx[mask] = tab_tx[rest] + cfg.d(i) * (cfg.M(i) - cfg.d(i))

    lhs = tab_rx[rx_mask] + tab_tx[tx_mask]
    bad = lhs < rhs
    bad[0] = False
    hits = np.flatnonzero(bad)
    if hits.size == 0:
        return None
    mask = int(hits[0])
    links = tuple(pairs[i] for i in range(n) if (mask >> i) & 1)
    return properness_witness_from_links(cfg, links)


@dataclass(frozen=True)
class ScalingReport:
    """Rank verdicts of a configuration and its c-fold scaled copy.

    Scaling every (M, N, d) by c multiplies both the constraint and
    variable counts by c^2 and preserves feasibility, so ``agree`` is
    expected to hold whenever the trials are conclusive.
    """

    c: int
    base: RankVerdict
    scaled: RankVerdict
    dims_consistent: bool

    @property
    def agree(self) -> bool:
        return self.base.full_row_rank == self.scaled.full_row_rank


def scaling_check(cfg, c, seed=0):
    """Rank-test a configuration and its c-fold copy side by side."""
    scaled_cfg = scale_config(cfg, c)
    base = generic_full_row_rank(cfg, seed=seed)
    scaled = generic_full_row_rank(scaled_cfg, seed=seed)
    c0, v0 = system_shape(cfg)
    c1, v1 = system_shape(scaled_cfg)
    dims = c1 == c * c * c0 and v1 == c * c * v0
    return ScalingReport(c=c, base=base, scaled=scaled, dims_consistent=dims)
