"""Rank tests for the alignment coefficient matrix.

Two engines decide whether the C x V coefficient matrix has full row rank
at a random channel draw, and a test runs the one its ``mode`` names:

* ``numeric``: singular values of the complex matrix against an SVD
  tolerance, fast but subject to conditioning.
* ``gf``: exact Gaussian elimination over a prime field. A random integer
  specialization can only underestimate the generic rank, never exceed it,
  so a single full-rank draw is a certificate while a deficient draw is
  wrong with probability at most C/p.

The prime-field kernel works on centered residues, the representatives
in [-h, h] with h = (p - 1) / 2 < 2**30, and halves the column range
recursively. A matrix with fewer rows than columns is ranked through its
transpose, so the recursion runs over min(rows, cols) columns.

Leaves of at most 32 columns eliminate column by column in int64, Crout
style, on a transposed copy of the panel: each pivot column stays as the
lower factor L, the pivot row is scaled by the pivot's inverse, and the
rows below take a rank-1 update. Both factors of the update are centered,
so it moves an entry by at most h**2 < 2**60; the panel is reduced only
every 8 updates, since p + 8 * h**2 + h < 2**63 (the last h is the offset
of centering), and a column or a pivot row is reduced when it is read.

Above a leaf, the triangular solve that gives U12 and the trailing update
``A22 -= L21 @ U12 (mod p)`` are float64 matrix products (BLAS). They are
exact because every partial sum stays within 2**53, where float64
represents every integer. The left operand is split into 16-bit limbs,
``a = hi * 2**16 + lo`` with |hi| <= 2**14 and |lo| <= 2**15, and since
``a * b = hi * (2**16 * b mod p) + lo * b (mod p)``, one modular product
is two float products on the whole right operand, whose terms are at most
2**15 * h < 2**45. A block of s inner terms thus moves a centered entry by
at most s * (2**14 + 2**15) * h. For p = 2**31 - 1 that is below 2**51
while s <= 42, where one rounding ``x - p * rint(x / p)`` gives the exact
centered residue, and below 2**53 - 2p while s <= 170, where two roundings
do; smaller primes allow longer blocks. A longer inner dimension runs in
blocks, each reduced before the next. The solve and the updates write
into the matrix in place, and each update works through its columns in
slices of at most 256, reusing one slice's work arrays.

The kernel ranks a stack of B blocks of one shape in one pass, along a
leading axis of every array: the products broadcast over it, and a leaf
takes each pivot step for all blocks at once. It reads every block's
diagonal entry, and only a block whose entry is 0 searches its own column
for a pivot row and swaps its own rows. The blocks share one recursion,
which splits their columns at the same pivot rows, so they must agree on
which columns have a pivot. Where a column has a pivot in some blocks and
none in others, the stack is split, and each block is ranked alone from
its own entries by the same kernel. A block of full rank never splits a
stack: ranked in its orientation, with no more columns than rows, it has
a pivot in every column, so full blocks agree on all of them. Only
deficient stacks pay for the split. A single matrix is a stack of one.

In prime-field mode the C x V matrix A is never formed whole. Row
(k, j, p, q) puts ``H_kj[d_k:, q]`` in receiver k's decorrelator block for
stream p, an entry that depends on p only through that placement. So the
decorrelator columns X of A = [X Y] are block diagonal, with d_k copies
per receiver of ``G_k[(j, q), n] = H_kj[d_k + n, q]``, which has d_j
rows for each link (k, j) into receiver k and N_k - d_k columns. Over any
field, rank [X Y] = rank X + rank(Q Y) when the rows of Q are a basis of
the left null space of X: completing Q to an invertible P = [P1; Q] gives
P A = [[P1 X, P1 Y], [0, Q Y]] with P1 X of full row rank, so a vanishing
combination of the rows has no part from the top block. Hence

    rank A = sum_k d_k rank G_k + rank R,
    R[(k, p, i), (j, q, m)] = Z_k[i, (j, q)] * H_kj[p, d_j + m],

where the rows of Z_k are a basis of the left null space of G_k over
GF(p). One small elimination per receiver gives rank G_k and Z_k, and the
kernel ranks R: C - sum_k d_k rank G_k rows and only the precoder
columns, 760 x 760 instead of 1520 x 1520 at (21x21,2)^20.

A full-rank draw certifies because a specialization can never exceed the
generic rank, so any channel point certifies, a structured one included.
Where the test looks for full rank, the rank is taken at a group point
first, over a prime of its own. Let g be the gcd of the pair-type
multiplicities and r the product of the distinct primes dividing g. The
point's prime p' is p if r divides p - 1, and otherwise the largest prime
p' <= p with p' = 1 (mod r) and p' >= 2**20, or p if there is none. Let
G = prod_q (Z_q)^{a_q} be the largest elementary abelian group with
every q dividing both p' - 1 and g, and let it act freely on the pairs:
each type's pairs, in pair order, fall into consecutive orbits of |G|
pairs, element x taking a representative to the orbit's x-th pair. The
trial seed draws only the links into the representatives, in link order
(:func:`~iafeas.channels.sample_channels` with ``receivers``), and the
group point takes those and sets H_{gk,gj} = H_kj for the rest. Then
G_gk is G_k with its rows permuted, and the rows of R for receiver gk are
those for k with the transmitters shifted by g, so R is block circulant
over G: its block between receivers g k and transmitters h j is T_{h - g},
the representatives' rows at transmitters (h - g) j.
Over GF(p'), where q | p' - 1 gives each Z_q the characters x -> w^(c x)
for a primitive q-th root w, the character transform splits R into one
block R_chi = sum_x chi(x) T_x per character chi, each |G| times smaller
on each side (Davis, *Circulant Matrices*, 1979), and

    rank A = |G| sum_{k rep} d_k rank G_k + sum_chi rank R_chi.

The blocks R_chi are ranked as one stack. At a full group point every
block is full, so the |G| blocks take as many pivot steps as one: 38 for
the twenty 38 x 38 blocks of (21x21,2)^20.

A full rank over GF(p') certifies like one over GF(p), since a minor that
is nonzero mod p' is a nonzero integer polynomial. A deficient group
point is no evidence of deficiency: the point is a special one, and its
rank may fall below a full generic rank. So a deficient group point falls
back to random draws over GF(p), the first of them a full draw of the same
trial seed, and a test that looks for deficiency (the cross-check of a
counting witness) never uses one.

Full row rank of one generic draw implies the constraint system is solvable
for almost every channel realization. In characteristic zero generic
surjectivity is also necessary (González, Beltrán and Santamaría, and
Bresler, Cartwright and Tse, IEEE Trans. Inf. Theory 2014). Still, no
verdict here is INFEASIBLE from a rank-deficient GF(p) or numeric draw: a
draw can fall below the generic rank by chance, the rank over GF(p) below
the rank in characteristic zero, and a numeric rank rests on a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from math import gcd, prod

import numpy as np

from .channels import ChannelSet, sample_channels
from .config import NetworkConfig, system_shape, validate_config
from .fields import COMPLEX, DEFAULT_PRIME, MIN_PRIME, is_prime, validate_field
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
_LEAF_COLUMNS = 32

#: rank-1 updates a leaf applies before it reduces its panel: with
#: centered factors each moves an entry by at most h**2, h = (p - 1) / 2,
#: and p + 8 * h**2 + h < 2**63 for every p < 2**31
_LEAF_DELAY = 8

#: widest column slice of a product update; its work arrays are reused
_SLICE_COLUMNS = 256

#: limb of the split left operand of a product
_LIMB = 1 << 16


def _center(X: np.ndarray, p: int, out=None, work=None) -> np.ndarray:
    """``X - p * rint(X / p)``, the residue in [-(p-1)/2, (p-1)/2].

    Written to ``out`` (X itself by default); ``work`` is an optional
    scratch array of X's shape. Exact for integers |X| < 2**51: the
    computed quotient is then within 2**-52 * |X| / p < 1 / (2p) of X / p,
    closer than any half-integer, so it rounds to the true nearest
    integer. Up to 2**53 - 2p the result is off by at most p, and a second
    call makes it exact.
    """
    q = np.multiply(X, 1.0 / p, out=work)
    np.rint(q, out=q)
    q *= p
    return np.subtract(X, q, out=X if out is None else out)


def _split(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered residues as ``hi * _LIMB + lo``, |lo| <= _LIMB / 2."""
    hi = np.multiply(A, 1.0 / _LIMB)
    np.rint(hi, out=hi)
    lo = np.multiply(hi, _LIMB)
    return hi, np.subtract(A, lo, out=lo)


def _inner_steps(p: int) -> tuple[int, int]:
    """Inner terms a product block may sum: (with one reduction, with two).

    A centered residue a splits as ``hi * _LIMB + lo`` with
    |hi| <= rint(h / _LIMB) and |lo| <= _LIMB / 2, h = (p - 1) / 2, so
    each term of ``hi @ (_LIMB * b mod p) + lo @ b`` is at most
    (|hi| + |lo|) * h, added to a residue of size h: one reduction is
    exact below 2**51, two up to 2**53 - 2p (see :func:`_center`).
    """
    h = (p - 1) // 2
    per_term = ((h + _LIMB // 2) // _LIMB + _LIMB // 2) * h
    return ((1 << 51) - 1 - h) // per_term, ((1 << 53) - 2 * p - h) // per_term


def _sub_product(C: np.ndarray, A: np.ndarray, B: np.ndarray, p: int) -> None:
    """``C <- C - A @ B`` centered mod p in place, exact through float64 BLAS.

    All three hold centered residues, as matrices or as stacks of them
    with a leading axis that the products broadcast over. A's residues
    are split into limbs, ``a = hi * _LIMB + lo``, and ``a * b = hi *
    (_LIMB * b mod p) + lo * b (mod p)`` makes each block of inner terms
    two products, reduced before the next block (see :func:`_inner_steps`
    and the module docstring). C is worked through in slices of columns,
    and each slice's product is complete before the slice is written, so
    C may be B itself.
    """
    k, n = A.shape[-1], C.shape[-1]
    if not k or not n:
        return
    one, two = _inner_steps(p)
    step = k if k <= one else two
    hi, lo = _split(A)
    w = min(n, _SLICE_COLUMNS)
    f_work, g_work = np.empty(C.shape[:-1] + (w,)), np.empty(C.shape[:-1] + (w,))
    for j in range(0, n, w):
        b = B[..., j : j + w]
        b16 = _center(b * float(_LIMB), p)
        f, g = f_work[..., : b.shape[-1]], g_work[..., : b.shape[-1]]
        for i in range(0, k, step):
            np.matmul(hi[..., i : i + step], b16[..., i : i + step, :], out=g)
            np.subtract(f if i else C[..., j : j + w], g, out=f)
            np.matmul(lo[..., i : i + step], b[..., i : i + step, :], out=g)
            f -= g
            if step > one:
                _center(f, p, work=g)
            _center(f, p, out=C[..., j : j + w] if i + step >= k else None, work=g)


def _solve_lower(tree, L: np.ndarray, B: np.ndarray, p: int) -> None:
    """``B <- L^-1 @ B mod p`` in place, block by block of a stack, for the
    lower triangular factors of ``tree``.

    ``L`` holds the factors on and below their diagonal; entries above it
    are ignored. ``tree`` mirrors the elimination that produced L: a leaf
    is the stack of matrices ``I - L^-1`` of its pivots, an inner node is
    ``(k, left, right)`` with k pivots on the left.
    """
    if not B.shape[1]:
        return
    if isinstance(tree, np.ndarray):
        _sub_product(B, tree, B, p)
        return
    k, left, right = tree
    _solve_lower(left, L[:, :k, :k], B[:, :k], p)
    _sub_product(B[:, k:], L[:, k:, :k], B[:, :k], p)
    _solve_lower(right, L[:, k:, k:], B[:, k:], p)


def _inverses(xs: list, p: int) -> list:
    """The inverses mod p of the integers ``xs``, none divisible by p.

    One modular inversion however many there are (Montgomery's trick):
    the inverse of the product of all of them, times the product of all
    but one, is that one's inverse.
    """
    out = []
    acc = 1
    for x in xs:
        out.append(acc)
        acc = acc * x % p
    inv = pow(acc, -1, p)
    for k in range(len(xs) - 1, 0, -1):
        out[k] = inv * out[k] % p
        inv = inv * xs[k] % p
    out[0] = inv
    return out


#: offsets of the two rows of a swap: a pivot row and the row it trades with
_SWAP = np.array([0, 1])


class _Disagree(Exception):
    """The blocks of a stack disagree on whether a column has a pivot."""


def _eliminate_leaf(A, r, c0, c1, p, pivots, inverse):
    """Column-by-column elimination of ``A[:, r:, c0:c1]``, Crout style.

    Works in int64 on a transposed copy of each block's panel, so that
    each of its columns is contiguous. One pivot step serves every block
    of the stack: a block searches for its pivot row only where its
    diagonal entry is 0, and swaps its own rows. A column with a pivot in
    some blocks and none in others raises :class:`_Disagree`. Each pivot
    column stays as the lower factor L; the pivot row is scaled by the
    pivot's inverse, so the upper factor has a unit diagonal, and the rows
    below take the rank-1 update ``row -= L[row, c] * scaled pivot row``.
    Each update moves an entry by at most ((p - 1) / 2)**2 < 2**60, so the
    panel is reduced only every ``_LEAF_DELAY`` updates; a column and a
    pivot row are reduced when they are read.

    Returns the next free pivot row and, if ``inverse``, the stack of
    ``I - L^-1`` for the leaf's pivots (centered, float64), else None.
    Only with ``inverse``, where a caller solves with the factors, does the
    leaf write them into ``A``, centered, with the rows swapped whole;
    otherwise nothing reads them, and ``A`` is left as it was.
    """
    B, m = A.shape[:2]
    w = c1 - c0
    # T[:w] holds the panel transposed, T[c, b] column c of block b; T[w]
    # numbers the rows, and moves with them when rows are swapped. In
    # ``flat``, row c * B + b is T[c, b].
    T = np.empty((w + 1, B, m - r), dtype=np.int64)
    T[:w] = A[:, r:, c0:c1].transpose(2, 0, 1)
    T[w] = np.arange(r, m)
    flat = T.reshape(-1, m - r)
    work = np.empty((w, B, m - r), dtype=np.int64)
    blocks = np.arange(B)[:, None]
    half = p // 2
    i = pending = 0
    cols = []
    dinv = []
    moved = False
    for c in range(w):
        col = T[c, :, i:]
        col += half
        col %= p
        col -= half
        heads = col[:, 0].tolist()
        if 0 in heads:
            # swap rows i and i + s of each block, s its first nonzero
            # entry in the column, or 0
            swap = (col != 0).argmax(axis=1)[:, None] * _SWAP + i
            T[:, blocks, swap] = T[:, blocks, swap[:, ::-1]]
            moved = True
            heads = col[:, 0].tolist()
            if 0 in heads:
                # a block with no pivot here: all of them, or a split
                if any(heads):
                    raise _Disagree
                continue
        dinv += _inverses(heads, p)
        if c + 1 < w and i + 1 < m - r:
            # the pivot rows, scaled: u[k, b] is block b's at column c + 1 + k
            u = (flat[(c + 1) * B : w * B, i] % p).reshape(-1, B)
            u *= dinv[-B:]
            u += half
            u %= p
            u -= half
            outer = work[: len(u), :, : col.shape[1] - 1]
            np.multiply(u[:, :, None], col[:, 1:], out=outer)
            T[c + 1 : w, :, i + 1 :] -= outer
            pending += 1
            if pending == _LEAF_DELAY:
                T[c + 1 : w, :, i + 1 :] %= p
                pending = 0
        cols.append(c)
        pivots.append(c0 + c)
        i += 1
        if r + i == m:
            break
    if not inverse:
        # nothing reads these factors: A is left as it was
        return r + i, None
    T, order = T[:w], T[w]
    T += half
    T %= p
    T -= half
    # rows are swapped whole, so the stored factor entries of earlier
    # columns follow their rows
    if moved:
        bs, js = np.nonzero(order != np.arange(r, m))
        A[bs, r + js] = A[bs, order[bs, js]]
    A[:, r:, c0:c1] = T.transpose(1, 2, 0)
    # L11 = Lu D with Lu unit lower triangular; I - L11^-1 = I - D^-1 Lu^-1
    dinv = np.array(dinv, dtype=np.int64).reshape(i, B).T
    L = T[cols, :, :i].transpose(1, 2, 0) * dinv[:, None, :] % p
    inv = np.broadcast_to(np.eye(i, dtype=np.int64), L.shape).copy()
    for j in range(i - 1):
        below = inv[:, j + 1 :, : j + 1]
        below -= L[:, j + 1 :, j, None] * inv[:, j, None, : j + 1]
        below %= p
    M = np.eye(i, dtype=np.int64) - dinv[:, :, None] * inv
    M += half
    M %= p
    M -= half
    return r + i, M.astype(np.float64)


def _eliminate(A, r, c0, c1, p, pivots, inverse=False):
    """Eliminate columns ``c0:c1`` of every block of the stack ``A`` below
    row ``r`` in place.

    Rows are swapped whole, so the stored factor entries of earlier
    columns follow their rows. Appends the pivot columns, which all blocks
    share, to ``pivots`` and returns the next free pivot row with the
    solve tree of the pivots found. ``inverse`` asks for the factors, the
    tree that a solve will use and the columns in ``A``: a left half
    always does, and a right half only if its caller does. So without
    ``inverse`` a leaf leaves ``A`` as it was, since nothing reads it after.
    """
    if c1 - c0 <= _LEAF_COLUMNS:
        return _eliminate_leaf(A, r, c0, c1, p, pivots, inverse)
    cm = (c0 + c1) // 2
    first = len(pivots)
    r1, left = _eliminate(A, r, c0, cm, p, pivots, True)
    if r1 == A.shape[1]:
        return r1, None
    if r1 > r:
        L = A[:, r:, pivots[first:]]
        k = r1 - r
        U12 = A[:, r:r1, cm:c1]
        _solve_lower(left, L[:, :k], U12, p)
        _sub_product(A[:, r1:, cm:c1], L[:, k:], U12, p)
    r2, right = _eliminate(A, r1, cm, c1, p, pivots, inverse)
    return r2, (r1 - r, left, right)


def _stack_ranks(stack: np.ndarray, p: int) -> list:
    """Rank over GF(p) of each block of a (B, m, n) stack, for a valid p.

    ``stack`` holds residues: integers in [0, p), or centered residues in
    float64. It is never written, and it is ranked through its blocks'
    transposes if m < n. All blocks go through one elimination; if they
    disagree on a pivot column, each block is ranked alone (module
    docstring).
    """
    if stack.shape[1] < stack.shape[2]:
        # rank A = rank A^T: eliminate the fewer columns
        stack = stack.transpose(0, 2, 1)
    n = stack.shape[2]
    if not n:
        return [0] * len(stack)
    if n <= _LEAF_COLUMNS:
        # one leaf, which reads A and never writes it
        A = stack
    else:
        A = stack.astype(np.float64, order="C")
        if stack.dtype != np.float64:
            # the products take centered residues
            _center(A, p)
    try:
        rank = _eliminate(A, 0, 0, n, p, [])[0]
    except _Disagree:
        return [_stack_ranks(block[None], p)[0] for block in stack]
    return [rank] * len(stack)


def gf_rank(matrix, p: int = DEFAULT_PRIME) -> int:
    """Exact rank over the prime field GF(p).

    Recursive column-halving elimination on centered residues, of size at
    most h = (p - 1) / 2. Leaves of at most 32 columns eliminate column by
    column in int64, where no intermediate exceeds p + 8 * h**2 + h <
    2**63. Above them, the triangular solve for U12 and the trailing
    update ``A22 -= L21 @ U12 (mod p)`` are float64 BLAS products on a
    left operand split into 16-bit limbs, in blocks of inner terms whose
    partial sums stay within 2**53 - 2p (see the module docstring). So the
    result is exact for every accepted prime. The matrix is ranked as a
    stack of one block (:func:`_stack_ranks`).

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
    return _stack_ranks(np.mod(A, p)[None], p)[0]


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


def _project_decorrelators(channels: ChannelSet, orbits=None) -> tuple[int, np.ndarray]:
    """Split the coefficient matrix's rank into a sum over GF(p), the
    prime field the channels were drawn over.

    Returns ``sum_k d_k * rank G_k`` and the reduced precoder matrix R (see
    the module docstring); the rank of the full matrix is the first plus
    ``gf_rank(R)``. R's rows are ordered (k, p, i) and its entries are
    unreduced products of two residues, below 2**62. Its columns are the
    precoder columns, laid out here in slabs: the transmitter at position
    x of an orbit takes column slab x, at its representative's place in
    the slab, so that slab x holds the module docstring's T_x.

    With ``orbits`` (1-based, see :func:`_group_point`), only the orbit
    representatives are receivers k. Without them every pair is its own
    orbit, and the one slab holds the precoder blocks in pair order, the
    order of :func:`~iafeas.transceivers.block_starts`.
    """
    cfg, p = channels.cfg, channels.field
    d = [pair.d for pair in cfg.pairs]
    orbits = orbits or [(k,) for k in range(1, cfg.K + 1)]
    # precoder block v_j spans R's columns starts[j]:starts[j] + d_j (M_j - d_j)
    widths = [pair.d * (pair.M - pair.d) for pair in cfg.pairs]
    slab = sum(widths[orbit[0] - 1] for orbit in orbits)
    starts = [0] * cfg.K
    place = 0
    for orbit in orbits:
        for x, j in enumerate(orbit):
            starts[j - 1] = x * slab + place
        place += widths[orbit[0] - 1]
    cols = len(orbits[0]) * slab
    reps = {orbit[0] for orbit in orbits}

    projected = 0
    rows = []
    # 0-based links, each receiver's together; one without links has no rows
    links = ((k - 1, j - 1) for k, j in cfg.cross_pairs() if k in reps)
    for k, into in groupby(links, key=lambda link: link[0]):
        heard = [(j, channels.cross[(k + 1, j + 1)]) for _, j in into]
        # G_k stacks H_kj[d_k:, :d_j]^T, so Z_k's columns are the slots (j, q)
        G = np.concatenate([H[d[k] :, : d[j]].T for j, H in heard])
        rank_k, Z = _left_null_basis(G, p)
        projected += d[k] * rank_k
        if not len(Z):
            continue
        R_k = np.zeros((d[k] * len(Z), cols), dtype=np.int64)
        slot = 0
        for j, H in heard:
            # entry ((p, i), (q, m)) is Z_k[i, (j, q)] * H_kj[p, d_j + m]
            Z_j = Z[:, slot : slot + d[j]]
            H_j = H[: d[k], d[j] :]
            block = Z_j[None, :, :, None] * H_j[:, None, None, :]
            R_k[:, starts[j] : starts[j] + widths[j]] = block.reshape(len(R_k), -1)
            slot += d[j]
        rows.append(R_k)
    R = np.concatenate(rows) if rows else np.zeros((0, cols), dtype=np.int64)
    return projected, R


@lru_cache(maxsize=64)
def _group_prime(r: int, p: int) -> int:
    """The prime p' of a group point whose group orders divide ``r``.

    p itself if r divides p - 1; otherwise the largest prime p' <= p with
    p' = 1 (mod r) and p' >= 2**20, or p if there is none.
    """
    if (p - 1) % r == 0:
        return p
    for candidate in range(p - (p - 1) % r, MIN_PRIME - 1, -r):
        if is_prime(candidate):
            return candidate
    return p


def _group_point(cfg: NetworkConfig, p: int):
    """The group of the module docstring's group point, None if trivial.

    Returns ``(orders, orbits, prime)``: the prime orders of G's cyclic
    factors, ascending, its orbits as tuples of 1-based pairs ordered by
    their representative, the first pair, and the prime p' of the field
    the point is drawn and ranked over. Element x, written in the mixed
    radix of ``orders`` with the first factor's digit most significant,
    takes the representative to the orbit's x-th pair.
    """
    by_type = {}
    for k, pair in enumerate(cfg.pairs, start=1):
        by_type.setdefault(pair, []).append(k)
    left = gcd(*map(len, by_type.values()))
    # the prime factors of the gcd, with multiplicity, ascending
    factors = []
    q = 2
    while left > 1:
        while left % q == 0:
            left //= q
            factors.append(q)
        q += 1
    prime = _group_prime(prod(set(factors)), p)
    orders = [q for q in factors if (prime - 1) % q == 0]
    if not orders:
        return None
    n = prod(orders)
    orbits = sorted(tuple(ks[i : i + n]) for ks in by_type.values() for i in range(0, len(ks), n))
    return tuple(orders), tuple(orbits), prime


@lru_cache(maxsize=64)
def _characters(orders: tuple, p: int) -> np.ndarray:
    """G's character table over GF(p), negated and centered.

    Row c, column x holds -chi_c(x). For Z_q, chi_c(x) = w**(c x) with
    w = a**((p - 1) / q) for the smallest a >= 2 giving w != 1; G's table
    is the Kronecker product of its factors'. Negated, so that
    :func:`_sub_product` into zeros makes the character sums; read-only,
    since every caller shares it.
    """
    table = np.ones((1, 1), dtype=np.int64)
    for q in orders:
        a = 2
        while pow(a, (p - 1) // q, p) == 1:
            a += 1
        w = pow(a, (p - 1) // q, p)
        powers = [[pow(w, c * x, p) for x in range(q)] for c in range(q)]
        table = np.kron(table, np.array(powers, dtype=np.int64)) % p
    table = _center(-table.astype(np.float64), p)
    table.setflags(write=False)
    return table


def _fold(R: np.ndarray, orders: tuple, p: int) -> np.ndarray:
    """The blocks ``R_chi = sum_x chi(x) T_x``, one per character of G.

    ``T_x`` is slab x of R's columns (see :func:`_project_decorrelators`);
    the sums are one exact :func:`_sub_product` of the negated character
    table into zeros. Returns the blocks as one (|G|, rows, cols) stack
    of centered residues in float64, in character order, which
    :func:`_stack_ranks` takes as it is: the sums are never rounded to
    int64 and back.
    """
    n = prod(orders)
    rows, width = len(R), R.shape[1] // n
    # S[x] is T_x flattened; folded[c] = 0 - sum_x -chi_c(x) S[x]
    S = (R % p).reshape(rows, n, width).transpose(1, 0, 2).reshape(n, -1)
    folded = np.zeros(S.shape)
    _sub_product(folded, _characters(orders, p), _center(S.astype(np.float64), p), p)
    return folded.reshape(n, rows, width)


def _gf_rank_at(channels: ChannelSet, group=None) -> int:
    """Rank of the coefficient matrix at ``channels``, over the prime field
    GF(p) they were drawn over.

    A random draw ranks its reduced matrix R with :func:`gf_rank`. With
    ``group`` from :func:`_group_point`, the rank is taken at the group
    point those channels define, drawn over the group's prime and for the
    orbit representatives' receivers: only their links are read, and the
    character blocks are ranked as one stack, without :func:`gf_rank` and
    its check of the prime, which the draw has made already.
    """
    p = channels.field
    if not group:
        projected, R = _project_decorrelators(channels)
        return projected + gf_rank(R, p)
    orders, orbits = group[:2]
    projected, R = _project_decorrelators(channels, orbits)
    return prod(orders) * projected + sum(_stack_ranks(_fold(R, orders, p), p))


@dataclass(frozen=True)
class RankVerdict:
    """Outcome of a generic full-row-rank test.

    ``rank`` is the best rank seen across trials (None when the test was
    decided without building a matrix). ``trial_seeds`` and ``trial_ranks``
    record the per-draw outcomes, and ``trials`` counts them. ``tolerance``
    is set in numeric mode, ``modulus`` in prime-field mode, where
    ``error_bound`` additionally bounds the probability that a deficient
    verdict is a sampling artifact, by (C/p)^trials; a cross-check takes
    one draw, so its bound is C/p. ``group`` is ``(orders, orbits, prime)``
    of :func:`_group_point` when the one trial was a full-rank group point:
    its trial seed drew the links into the orbits' first pairs, in link
    order, over GF(prime), and H_{gk,gj} = H_kj gives the rest (module
    docstring). The JSON records the prime only where it differs from
    ``modulus``.
    """

    mode: str
    C: int
    V: int
    full_row_rank: bool
    rank: int | None
    trial_seeds: tuple[int, ...]
    trial_ranks: tuple[int, ...]
    tolerance: float | None = None
    modulus: int | None = None
    error_bound: float | None = None
    note: str = ""
    group: tuple | None = None

    @property
    def trials(self) -> int:
        return len(self.trial_ranks)

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
        if self.group:
            orders, orbits, prime = self.group
            out["group"] = {"orders": list(orders), "orbits": [list(o) for o in orbits]}
            if prime != self.modulus:
                out["group"]["prime"] = prime
        if self.note:
            out["note"] = self.note
        return out


def _trial_seeds(seed: int, trials: int) -> tuple[int, ...]:
    state = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    return tuple(int(s) for s in state)


def generic_full_row_rank(
    cfg: NetworkConfig,
    mode: str = "gf",
    seed: int = 0,
    p: int = DEFAULT_PRIME,
    cross_check: bool = False,
) -> RankVerdict:
    """Decide whether the coefficient matrix generically has full row rank.

    Draws up to ``DEFAULT_TRIALS`` independent channel realizations (seeds
    derived deterministically from ``seed``) and ranks each matrix; in
    prime-field mode through the decorrelator projection of the module
    docstring, which gives the same rank without forming the matrix. The
    first full-rank draw settles the verdict, since a specialization can
    never exceed the generic rank; repeated deficient draws shrink the
    chance that deficiency is bad luck rather than structure.

    In prime-field mode the first trial seed is first drawn and ranked at
    its group point, over the group's own prime p' (module docstring). If
    that is full, the one trial decides and the verdict records the group
    and p'; if not, the random draws over GF(p) decide, the first of them
    a draw of every link from that same seed, and ``note`` says so.
    ``cross_check`` asks for one draw and no group point: the cross-check
    of a counting witness (see :mod:`~iafeas.report`) looks for
    deficiency, and a deficient group point proves none.

    Shortcuts: C > V is deficient without sampling (more constraints than
    variables); so is a pair with d_k > min(M_k, N_k), whose transceivers
    cannot carry d_k streams, so the matrix is not defined; otherwise
    C == 0 is trivially full.
    """
    if mode not in ("numeric", "gf"):
        raise ValueError(f"mode must be 'numeric' or 'gf', got {mode!r}")
    C, V = system_shape(cfg)
    modulus = validate_field(p) if mode == "gf" else None

    for decided, full, note in (
        (C > V, False, "more constraints than variables"),
        (validate_config(cfg), False, "stream support fails: some d_k > min(M_k, N_k)"),
        (C == 0, True, "no cross constraints"),
    ):
        if decided:
            return RankVerdict(
                mode=mode, C=C, V=V, full_row_rank=full, rank=0 if full else None,
                trial_seeds=(), trial_ranks=(), modulus=modulus, note=note,
            )

    seeds = _trial_seeds(seed, 1 if cross_check else DEFAULT_TRIALS)
    group = None if cross_check or mode != "gf" else _group_point(cfg, modulus)
    ranks, note, tol = [], "", None
    for ts in seeds:
        if mode == "numeric":
            ch = sample_channels(cfg, ts, field=COMPLEX)
            r, tol = _svd_rank(build_jacobian(ch).matrix)
        elif group is None:
            r = _gf_rank_at(sample_channels(cfg, ts, field=modulus))
        else:
            reps = [orbit[0] for orbit in group[1]]
            ch = sample_channels(cfg, ts, field=group[2], receivers=reps)
            r = _gf_rank_at(ch, group)
            if r < C:
                # only a full group point decides; the random draw takes
                # every link (module docstring)
                group, note = None, "the group point is deficient; random draws decide"
                r = _gf_rank_at(sample_channels(cfg, ts, field=modulus))
        ranks.append(r)
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
        trial_seeds=seeds[: len(ranks)],
        trial_ranks=tuple(ranks),
        tolerance=tol,
        modulus=modulus,
        error_bound=error_bound,
        note=note,
        group=group,
    )
