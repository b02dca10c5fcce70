"""Rank tests for the alignment coefficient matrix.

Two engines decide whether the C x V coefficient matrix has full row rank
at a random channel draw:

* ``numeric``: singular values of the complex matrix against an SVD
  tolerance, fast but subject to conditioning.
* ``gf``: exact Gaussian elimination over a prime field. A random integer
  specialization can only underestimate the generic rank, never exceed it,
  so a single full-rank draw is a certificate while a deficient draw is
  wrong with probability at most C/p. The prime-field verdict is treated
  as authoritative whenever the two engines disagree.

The prime-field kernel halves the column range recursively. Leaves of at
most 16 columns eliminate column by column in int64, where every product
of two residues is below 2**62. Above a leaf, the trailing update
``A22 -= L21 @ U12 (mod p)`` and the triangular solve that gives U12 run
as float64 matrix products (BLAS). These are exact because the operands
are split into 16-bit halves before they reach the float unit: a residue
below p < 2**31 is ``hi * 2**16 + lo`` with ``lo < 2**16`` and
``hi < 2**15``. With an inner dimension k <= 64 only the left operand is
split, and each of the two products sums k terms below 2**16 * 2**31, so
every partial sum stays below 2**53, where float64 represents integers
exactly. Above 64 both operands are split; each of the four products sums
k terms below 2**32, exact while k <= 2**21, and k counts pivots, so it
never exceeds min(C, V). The partial products are reduced modulo p in
int64. The solve and the updates write into the matrix in place, and each
update works through its columns in slices of at most 256, reusing one
slice's work arrays, so that a large update does not page in a dozen
temporaries of its full size.

In prime-field mode the C x V matrix A is never formed whole. Row
(k, j, p, q) puts ``H_kj[d_k:, q]`` in receiver k's decorrelator block for
stream p, an entry that depends on p only through that placement. So the
decorrelator columns X of A = [X Y] are block diagonal, with d_k copies
per receiver of ``G_k[(j, q), n] = H_kj[d_k + n, q]``, a
sum_{j != k} d_j x (N_k - d_k) matrix. Over any field, rank [X Y] =
rank X + rank(Q Y) when the rows of Q are a basis of the left null space
of X: completing Q to an invertible P = [P1; Q] gives
P A = [[P1 X, P1 Y], [0, Q Y]] with P1 X of full row rank, so a vanishing
combination of the rows has no part from the top block. Hence

    rank A = sum_k d_k rank G_k + rank R,
    R[(k, p, i), (j, q, m)] = Z_k[i, (j, q)] * H_kj[p, d_j + m],

where the rows of Z_k are a basis of the left null space of G_k over
GF(p). One small elimination per receiver gives rank G_k and Z_k, and the
kernel ranks R: C - sum_k d_k rank G_k rows and only the precoder
columns, 760 x 760 instead of 1520 x 1520 at (21x21,2)^20.

Full row rank of one generic draw implies the constraint system is solvable
for almost every channel realization; the converse does not hold in
general, so a deficient verdict alone never proves infeasibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet, sample_channels
from .config import NetworkConfig, system_shape, validate_config
from .fields import COMPLEX, DEFAULT_PRIME, validate_field
from .jacobian import build_jacobian

#: default number of independent draws in generic rank tests
DEFAULT_TRIALS = 3


def numeric_tolerance(shape: tuple[int, int], sigma_max: float) -> float:
    """SVD cutoff: max(rows, cols) * machine eps * sigma_max."""
    return max(shape) * np.finfo(np.float64).eps * sigma_max


def _svd_rank(matrix) -> tuple[int, float]:
    """Numerical rank via singular values, and the tolerance it used.

    Singular values above :func:`numeric_tolerance` count toward the rank.
    """
    A = np.asarray(matrix)
    if A.ndim != 2:
        raise ValueError("rank needs a 2-d matrix")
    if min(A.shape) == 0:
        return 0, 0.0
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    sigma = np.linalg.svd(A, compute_uv=False)
    tol = numeric_tolerance(A.shape, float(sigma[0]))
    return int(np.count_nonzero(sigma > tol)), tol


#: widest column range that the elimination handles column by column
_LEAF_COLUMNS = 16

#: largest inner dimension at which splitting one operand keeps a float64
#: product exact: 64 * 2**16 * 2**31 = 2**53
_ONE_SIDED_INNER = 64


#: widest column slice of a product update; its work arrays are reused
_SLICE_COLUMNS = 256


def _halves(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residues below 2**31 as float64 low and high 16-bit halves."""
    lo = np.empty(X.shape)
    hi = np.empty(X.shape)
    np.bitwise_and(X, 0xFFFF, out=lo, casting="unsafe")
    np.right_shift(X, 16, out=hi, casting="unsafe")
    return lo, hi


def _add_product(acc, x, y, f, t) -> None:
    """``acc += x @ y``, formed in the float64 array ``f`` and converted
    through the int64 array ``t``; the product must be an exact integer."""
    np.matmul(x, y, out=f)
    np.copyto(t, f, casting="unsafe")
    acc += t


def _sub_product(C: np.ndarray, A: np.ndarray, B: np.ndarray, p: int) -> None:
    """``C <- (C - A @ B) mod p`` in place, exact through float64 BLAS.

    C, A and B hold residues. C is worked through in slices of columns,
    and each slice's product is complete before the slice is written, so
    C may be B itself.
    """
    a_lo, a_hi = _halves(A)
    one_sided = A.shape[1] <= _ONE_SIDED_INNER
    rows, n = C.shape
    w = min(n, _SLICE_COLUMNS)
    f_work = np.empty((rows, w))
    p_work = np.empty((rows, w), dtype=np.int64)
    t_work = np.empty((rows, w), dtype=np.int64)
    for j in range(0, n, w):
        Cj = C[:, j : j + w]
        f, prod, t = (X[:, : Cj.shape[1]] for X in (f_work, p_work, t_work))
        if one_sided:
            b = B[:, j : j + w].astype(np.float64)
            np.matmul(a_hi, b, out=f)
            np.copyto(prod, f, casting="unsafe")
            np.remainder(prod, p, out=prod)
            prod <<= 16
            _add_product(prod, a_lo, b, f, t)
        else:
            b_lo, b_hi = _halves(B[:, j : j + w])
            np.matmul(a_hi, b_hi, out=f)
            np.copyto(prod, f, casting="unsafe")
            np.remainder(prod, p, out=prod)
            prod <<= 16
            _add_product(prod, a_lo, b_hi, f, t)
            _add_product(prod, a_hi, b_lo, f, t)
            np.remainder(prod, p, out=prod)
            prod <<= 16
            _add_product(prod, a_lo, b_lo, f, t)
        np.subtract(Cj, prod, out=prod)
        np.remainder(prod, p, out=Cj)


def _solve_unit_lower(tree, L: np.ndarray, B: np.ndarray, p: int) -> None:
    """``B <- L^-1 @ B mod p`` in place, for the unit lower triangular
    factor of ``tree``.

    ``L`` holds the multipliers below its diagonal; entries on and above it
    are ignored. ``tree`` mirrors the elimination that produced L: a leaf
    is the matrix ``I - L^-1`` of its at most 16 pivots, an inner node is
    ``(k, left, right)`` with k pivots on the left.
    """
    if len(B) == 0:
        return
    if isinstance(tree, np.ndarray):
        _sub_product(B, tree, B, p)
        return
    k, left, right = tree
    _solve_unit_lower(left, L[:k, :k], B[:k], p)
    _sub_product(B[k:], L[k:, :k], B[:k], p)
    _solve_unit_lower(right, L[k:, k:], B[k:], p)


def _eliminate_leaf(A, r, c0, c1, p, pivots):
    """Column-by-column elimination of ``A[r:, c0:c1]``.

    Only rows with a nonzero entry in the pivot column are updated, and
    only within the leaf's later columns; their multipliers are stored in
    place of the eliminated entries. Returns the next free pivot row and
    ``I - L^-1`` for the leaf's pivots.
    """
    m = A.shape[0]
    r0, first = r, len(pivots)
    for c in range(c0, c1):
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            i = r + nz[0]
            A[[r, i]] = A[[i, r]]
        below = r + nz[1:]
        if below.size:
            mult = A[below, c] * pow(int(A[r, c]), p - 2, p) % p
            A[below, c] = mult
            if c + 1 < c1:
                A[below, c + 1 : c1] = (
                    A[below, c + 1 : c1] - mult[:, None] * A[r, c + 1 : c1]
                ) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    L = A[r0:r, pivots[first:]]
    inv = np.eye(r - r0, dtype=np.int64)
    for j in range(r - r0 - 1):
        inv[j + 1 :] = (inv[j + 1 :] - L[j + 1 :, j, None] * inv[j]) % p
    return r, (np.eye(r - r0, dtype=np.int64) - inv) % p


def _eliminate(A, r, c0, c1, p, pivots):
    """Eliminate columns ``c0:c1`` of ``A`` below row ``r`` in place.

    Rows are swapped whole, so the stored multipliers of earlier columns
    follow their rows. Appends the pivot columns to ``pivots`` and returns
    the next free pivot row with the solve tree of the pivots found.
    """
    if c1 - c0 <= _LEAF_COLUMNS:
        return _eliminate_leaf(A, r, c0, c1, p, pivots)
    cm = (c0 + c1) // 2
    first = len(pivots)
    r1, left = _eliminate(A, r, c0, cm, p, pivots)
    if r1 == A.shape[0]:
        return r1, None
    if r1 > r:
        L = A[r:, pivots[first:]]
        k = r1 - r
        U12 = A[r:r1, cm:c1]
        _solve_unit_lower(left, L[:k], U12, p)
        nz = np.flatnonzero(L[k:].any(axis=1))
        if nz.size == A.shape[0] - r1:
            _sub_product(A[r1:, cm:c1], L[k:], U12, p)
        elif nz.size:
            rows = r1 + nz
            A22 = A[rows, cm:c1]
            _sub_product(A22, L[rows - r], U12, p)
            A[rows, cm:c1] = A22
    r2, right = _eliminate(A, r1, cm, c1, p, pivots)
    return r2, (r1 - r, left, right)


def gf_rank(matrix, p: int = DEFAULT_PRIME) -> int:
    """Exact rank over the prime field GF(p).

    Recursive column-halving elimination: leaves of at most 16 columns
    eliminate column by column in int64; above them, the unit lower
    triangular solve for U12 and the trailing update
    ``A22 -= L21 @ U12 (mod p)`` are float64 BLAS products on operands
    split into 16-bit halves. Every partial sum stays below 2**53 (see the
    module docstring), so the result is exact for every accepted prime.

    Entries may be any integers that fit int64; they are reduced modulo p
    first.
    """
    p = validate_field(p)
    if p == COMPLEX:
        raise ValueError("gf_rank needs a prime modulus")
    A = np.asarray(matrix)
    if A.ndim != 2:
        raise ValueError("rank needs a 2-d matrix")
    if A.dtype.kind not in "iuO":
        raise ValueError("gf_rank needs an integer matrix")
    A = np.mod(A, p).astype(np.int64, copy=False)
    m, n = A.shape
    if m == 0 or n == 0:
        return 0
    return _eliminate(A, 0, 0, n, p, [])[0]


def _left_null_basis(G: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """Rank over GF(p) of ``G`` and a basis of its left null space.

    Returns ``(rank, Z)`` where the ``rows - rank`` rows of Z are a basis of
    the vectors z with ``z @ G = 0``. ``[G | I]`` is eliminated
    fraction-free: a row below the pivot becomes ``pivot * row - entry *
    pivot_row``, an invertible row operation that needs no modular inverse;
    each product is below 2**62, so the difference fits int64. Rows that
    end with a zero G part hold, in their I part, independent combinations
    that annihilate G.
    """
    rows, n = G.shape
    A = np.concatenate([G, np.eye(rows, dtype=np.int64)], axis=1)
    r = 0
    for c in range(n):
        if r == rows:
            break
        if not A[r, c]:
            nz = np.flatnonzero(A[r:, c])
            if nz.size == 0:
                continue
            i = r + nz[0]
            A[[r, i]] = A[[i, r]]
        below = A[r + 1 :, c:]
        below[:] = (below * A[r, c] - below[:, :1] * A[r, c:]) % p
        r += 1
    return r, A[r:, n:]


def _project_decorrelators(
    cfg: NetworkConfig, channels: ChannelSet, p: int
) -> tuple[int, np.ndarray]:
    """Split the coefficient matrix's rank into a sum over GF(p).

    Returns ``sum_k d_k * rank G_k`` and the reduced precoder matrix R (see
    the module docstring); the rank of the full matrix is the first plus
    ``gf_rank(R)``. R's rows are ordered (k, p, i), its columns are the
    precoder columns of the full matrix in their order, and its entries are
    unreduced products of two residues, below 2**62.
    """
    K = cfg.K
    d = [pair.d for pair in cfg.pairs]
    vm = [pair.M - pair.d for pair in cfg.pairs]
    # R is formed on a padded grid: stream slots (j, q) of K x D, precoder
    # columns (j, q, m) of K x D x W; the masks keep the slots that exist
    D, W = max(d), max(vm)
    streams = np.arange(D) < np.array(d)[:, None]
    free = np.arange(W) < np.array(vm)[:, None]
    keep = (streams[:, :, None] & free[:, None, :]).ravel()

    projected = 0
    rows = []
    for k in range(K):
        # G_k, and H_kj[:d_k, d_j:] at transmitter slot j
        blocks = []
        h = np.zeros((d[k], K, W), dtype=np.int64)
        for j in range(K):
            if j != k:
                H = channels.cross[(k + 1, j + 1)]
                blocks.append(H[d[k] :, : d[j]].T)
                h[:, j, : vm[j]] = H[: d[k], d[j] :]
        rank_k, Z = _left_null_basis(np.concatenate(blocks), p)
        projected += d[k] * rank_k
        if len(Z):
            own = streams.copy()
            own[k] = False
            Zp = np.zeros((len(Z), K, D), dtype=np.int64)
            Zp[:, own] = Z
            T = Zp[None, :, :, :, None] * h[:, None, :, None, :]
            rows.append(T.reshape(d[k] * len(Z), K * D * W))
    R = np.concatenate(rows) if rows else np.zeros((0, K * D * W), dtype=np.int64)
    return projected, R if keep.all() else R[:, keep]


@dataclass(frozen=True)
class RankVerdict:
    """Outcome of a generic full-row-rank test.

    ``rank`` is the best rank seen across trials (None when the test was
    decided without building a matrix). ``trial_seeds`` and ``trial_ranks``
    record the per-draw outcomes. ``tolerance`` is set in numeric mode,
    ``modulus`` in prime-field mode, where ``error_bound`` additionally
    bounds the probability that a deficient verdict is a sampling artifact.
    """

    mode: str
    C: int
    V: int
    full_row_rank: bool
    rank: int | None
    trials: int
    trial_seeds: tuple[int, ...]
    trial_ranks: tuple[int, ...]
    tolerance: float | None = None
    modulus: int | None = None
    error_bound: float | None = None
    note: str = ""

    @property
    def status(self) -> str:
        return "feasible-sufficient" if self.full_row_rank else "rank-deficient"

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "C": self.C,
            "V": self.V,
            "full_row_rank": self.full_row_rank,
            "status": self.status,
            "rank": self.rank,
            "trials": self.trials,
            "trial_seeds": list(self.trial_seeds),
            "trial_ranks": list(self.trial_ranks),
        }
        if self.mode == "numeric":
            out["tolerance"] = self.tolerance
        else:
            out["modulus"] = self.modulus
            out["error_bound"] = self.error_bound
        if self.note:
            out["note"] = self.note
        return out


def _trial_seeds(seed: int, trials: int) -> tuple[int, ...]:
    state = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    return tuple(int(s) for s in state)


def generic_full_row_rank(
    cfg: NetworkConfig,
    trials: int = DEFAULT_TRIALS,
    mode: str = "gf",
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> RankVerdict:
    """Decide whether the coefficient matrix generically has full row rank.

    Draws up to ``trials`` independent channel realizations (seeds derived
    deterministically from ``seed``) and ranks each matrix; in prime-field
    mode through the decorrelator projection of the module docstring,
    which gives the same rank without forming the matrix. The first
    full-rank draw settles the verdict, since a specialization can never
    exceed the generic rank; repeated deficient draws shrink the chance
    that deficiency is bad luck rather than structure.

    Shortcuts: C > V is deficient without sampling (more constraints than
    variables); so is a pair with d_k > min(M_k, N_k), whose transceivers
    cannot carry d_k streams, so the matrix is not defined; otherwise
    C == 0 is trivially full.
    """
    if mode not in ("numeric", "gf"):
        raise ValueError(f"mode must be 'numeric' or 'gf', got {mode!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    C, V = system_shape(cfg)
    modulus = validate_field(p) if mode == "gf" else None

    if C > V:
        return RankVerdict(
            mode=mode, C=C, V=V, full_row_rank=False, rank=None, trials=0,
            trial_seeds=(), trial_ranks=(), modulus=modulus,
            note="more constraints than variables",
        )
    if not validate_config(cfg).admissible:
        return RankVerdict(
            mode=mode, C=C, V=V, full_row_rank=False, rank=None, trials=0,
            trial_seeds=(), trial_ranks=(), modulus=modulus,
            note="stream support fails: some d_k > min(M_k, N_k)",
        )
    if C == 0:
        return RankVerdict(
            mode=mode, C=C, V=V, full_row_rank=True, rank=0, trials=0,
            trial_seeds=(), trial_ranks=(), modulus=modulus,
            note="no cross constraints",
        )

    seeds = _trial_seeds(seed, trials)
    ranks = []
    used = []
    tol = None
    for ts in seeds:
        if mode == "numeric":
            ch = sample_channels(cfg, ts, field=COMPLEX)
            r, tol = _svd_rank(build_jacobian(cfg, ch).matrix)
        else:
            ch = sample_channels(cfg, ts, field=modulus)
            projected, R = _project_decorrelators(cfg, ch, modulus)
            r = projected + gf_rank(R, modulus)
        ranks.append(r)
        used.append(ts)
        if r == C:
            break

    full = ranks[-1] == C
    error_bound = None
    if mode == "gf" and not full:
        error_bound = float(min(1.0, (C / modulus) ** len(ranks)))
    return RankVerdict(
        mode=mode,
        C=C,
        V=V,
        full_row_rank=full,
        rank=max(ranks),
        trials=len(ranks),
        trial_seeds=tuple(used),
        trial_ranks=tuple(ranks),
        tolerance=tol,
        modulus=modulus,
        error_bound=error_bound,
    )
