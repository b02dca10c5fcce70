"""The alignment coefficient matrix and the constraint residual map.

Every zero-forcing constraint, one per link (receiver k, transmitter j),
receive stream p and transmit stream q, is a polynomial in the reduced
transceiver variables. Collecting the linear-term coefficients of all C
constraints over all V variables gives a C x V matrix: the Jacobian of the
residual map at the identity-pinned origin. Its generic row rank decides
whether the constraints are independent enough to be solvable, which is
what the rank engine tests. The functions here take a channel set alone
and work on its one :class:`AlignmentSystem`.

Row order: constraints sorted by (k, j, p, q) with the transmit stream q
fastest. Column order: the variable order that
:mod:`~iafeas.transceivers` owns (all decorrelator blocks, then all
precoder blocks, antenna index fastest within a stream column). Public
index maps are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import NetworkConfig, system_shape, validate_config
from .fields import COMPLEX, field_token
from .transceivers import ReducedTransceivers, block_starts

if TYPE_CHECKING:
    from .channels import ChannelSet


# ---------------------------------------------------------------------------
# index maps
# ---------------------------------------------------------------------------


def row_index(cfg: NetworkConfig, k: int, j: int, p: int, q: int) -> int:
    """1-based row of constraint (k, j, p, q)."""
    first = 0
    for link in cfg.cross_pairs():
        if link == (k, j):
            break
        first += cfg.d(link[0]) * cfg.d(link[1])
    else:
        raise ValueError(f"constraints only exist for links, not ({k}, {j})")
    if not 1 <= p <= cfg.d(k):
        raise ValueError(f"p={p} out of range 1..{cfg.d(k)}")
    if not 1 <= q <= cfg.d(j):
        raise ValueError(f"q={q} out of range 1..{cfg.d(j)}")
    return first + (p - 1) * cfg.d(j) + q


def col_index(cfg: NetworkConfig, var) -> int:
    """1-based column of a reduced variable.

    ``var`` is ``("u", k, n, p)`` for the decorrelator coefficient of
    receive antenna d_k + n in stream column p, or ``("v", j, m, q)`` for
    the precoder entry of transmit antenna d_j + m in stream column q.
    """
    try:
        side, a, b, c = var
    except (TypeError, ValueError):
        raise ValueError(f"variable designator must have 4 fields, got {var!r}")
    if side not in ("u", "v"):
        raise ValueError(f"variable side must be 'u' or 'v', got {side!r}")
    if not 1 <= a <= cfg.K:
        raise ValueError(f"pair index {a} out of range 1..{cfg.K}")
    starts = block_starts(cfg)
    if side == "u":
        k, n, p = a, b, c
        rows = cfg.N(k) - cfg.d(k)
        if not 1 <= n <= rows:
            raise ValueError(f"n={n} out of range 1..{rows} for pair {k}")
        if not 1 <= p <= cfg.d(k):
            raise ValueError(f"p={p} out of range 1..{cfg.d(k)}")
        return starts[k - 1] + (p - 1) * rows + n
    j, m, q = a, b, c
    rows = cfg.M(j) - cfg.d(j)
    if not 1 <= m <= rows:
        raise ValueError(f"m={m} out of range 1..{rows} for pair {j}")
    if not 1 <= q <= cfg.d(j):
        raise ValueError(f"q={q} out of range 1..{cfg.d(j)}")
    return starts[cfg.K + j - 1] + (q - 1) * rows + m


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignmentJacobian:
    """The C x V linear coefficient matrix of the alignment constraints.

    ``matrix`` is complex128 for complex channels and int64 (entries
    reduced modulo the prime) for prime-field channels. Dense storage;
    :meth:`triplets` provides a sparse view for dumps and golden tests.
    """

    cfg: NetworkConfig
    field: object
    matrix: np.ndarray

    @property
    def C(self) -> int:
        return self.matrix.shape[0]

    @property
    def V(self) -> int:
        return self.matrix.shape[1]

    def triplets(self):
        """Yield (row, col, value) for every nonzero entry, 1-based,
        row-major order."""
        rows, cols = np.nonzero(self.matrix)
        for r, c in zip(rows, cols):
            yield (int(r) + 1, int(c) + 1, self.matrix[r, c])

    def dump(self, fh) -> None:
        """Write the text dump: a ``C V field`` header line, then one
        ``row col value`` line per nonzero. Complex values are written as
        two floats (real part, imaginary part)."""
        fh.write(f"{self.C} {self.V} {field_token(self.field)}\n")
        for r, c, v in self.triplets():
            if self.field == COMPLEX:
                fh.write(f"{r} {c} {float(v.real)!r} {float(v.imag)!r}\n")
            else:
                fh.write(f"{r} {c} {int(v)}\n")


class AlignmentSystem:
    """The alignment equations of one channel set, checked once.

    Holds, per batch of :attr:`~iafeas.channels.ChannelSet.batches`, its
    links' residual rows and the positions of their variables in the
    variable vector, so that a solver evaluates :meth:`residuals` and
    :meth:`jacobian` many times without checking or indexing again. A
    reduced point is its variable vector x (``to_vector`` order). A
    channel set builds its own, :attr:`~iafeas.channels.ChannelSet.system`.
    """

    def __init__(self, channels: ChannelSet):
        cfg = channels.cfg
        if validate_config(cfg):
            # a pair with d_k > min(M_k, N_k) has no free block to place
            raise ValueError("the coefficient matrix needs a stream-admissible network")
        # no reference back to the channel set, which holds this system:
        # a cycle would keep both alive until the cyclic collector runs
        self.dtype = np.complex128 if channels.is_complex else np.int64
        self.batches = channels.batches
        self.C, self.V = system_shape(cfg)
        starts = np.array(block_starts(cfg))
        sizes = np.zeros(sum(b.index.size for b in self.batches), dtype=np.intp)
        for b in self.batches:
            sizes[b.index] = b.shape[2] * b.shape[3]
        first_row = np.cumsum(sizes) - sizes
        self.rows, self.ucols, self.vcols = [], [], []
        for b in self.batches:
            N, M, dk, dj = b.shape
            B, un, vm = b.index.size, N - dk, M - dj
            # row (k, j, p, q); the stored entries of u_k (stream p, antenna n)
            # and of v_j (stream q, antenna m), as to_vector orders them
            rows = first_row[b.index][:, None] + np.arange(dk * dj)
            ucols = starts[b.rx][:, None] + np.arange(dk * un)
            vcols = starts[cfg.K + b.tx][:, None] + np.arange(dj * vm)
            self.rows.append(rows.reshape(B, dk, dj))
            self.ucols.append(ucols.reshape(B, dk, un))
            self.vcols.append(vcols.reshape(B, dj, vm))

    def _blocks(self, x):
        """Per batch, the stacks of W_k^T (B, d_k, N_k - d_k) and T_j (B, M_j - d_j, d_j),
        with the strides of the column-major blocks a reduced point stores:
        a gather takes the layout of its index array."""
        for ucol, vcol in zip(self.ucols, self.vcols):
            yield x[ucol], x[vcol].swapaxes(1, 2)

    def residuals(self, x) -> np.ndarray:
        """All C constraint polynomials at the point x.

        One batch at a time: the constant h_kj(p, q) plus the decorrelator,
        precoder and bilinear terms, summed in that order as stacks of
        (d_k, d_j) blocks, then scattered to the rows (k, j, p, q).
        """
        F = np.zeros(self.C, dtype=np.complex128)
        for b, rows, (Wt, T) in zip(self.batches, self.rows, self._blocks(x)):
            dk, dj = b.shape[2:]
            H = b.H
            F[rows] = (
                H[:, :dk, :dj]
                + Wt @ H[:, dk:, :dj]
                + H[:, :dk, dj:] @ T
                + Wt @ H[:, dk:, dj:] @ T
            )
        return F

    def jacobian(self, x=None) -> np.ndarray:
        """The C x V linear coefficients at x; at the origin if None."""
        return _place(self, None if x is None else self._blocks(x))


def _place(system: AlignmentSystem, blocks) -> np.ndarray:
    """The one placement: linear coefficients at a reduced point.

    Row (k, j, p, q) holds row p of U_k^H H_kj, restricted to the free
    precoder entries, in transmitter j's block for stream q, and column q
    of H_kj V_j, restricted to the free decorrelator entries, in receiver
    k's block for stream p. Each batch of equal-shape links fills its
    cells with two scatters. ``blocks=None`` is the origin, where those
    are plain channel slices: no matrix products, and the matrix keeps
    the channels' field (complex128, or int64 residues for a prime).
    Otherwise ``blocks`` yields the stacks of
    :meth:`AlignmentSystem._blocks`, and U_k^H H_kj and H_kj V_j are
    stacked products: each makes, per link, the BLAS call of the 2-d
    product, so every entry keeps its bits.
    """
    A = np.zeros((system.C, system.V), dtype=system.dtype)
    cells = A.reshape(-1)
    if blocks is None:
        blocks = ((None, None) for _ in system.batches)
    for b, rows, ucol, vcol, (Wt, T) in zip(
        system.batches, system.rows, system.ucols, system.vcols, blocks
    ):
        dk, dj = b.shape[2:]
        # U_k^H H_kj and H_kj V_j; at the origin their rows and columns are
        # read straight from H_kj (the first d_k rows, d_j columns)
        UH = HV = b.H
        if Wt is not None:
            UH = b.H[:, :dk, :] + Wt @ b.H[:, dk:, :]
            HV = b.H[:, :, :dj] + b.H[:, :, dj:] @ T
        at = rows[..., None] * system.V
        cells[at + ucol[:, :, None, :]] = HV[:, None, dk:, :dj].swapaxes(2, 3)
        cells[at + vcol[:, None, :, :]] = UH[:, :dk, None, dj:]
    return A


def build_jacobian(channels: ChannelSet) -> AlignmentJacobian:
    """Assemble the coefficient matrix from sampled channels.

    Works for complex and prime-field channels alike; placement only reads
    channel entries, never the field. Each row touches two column blocks:
    the decorrelator block of its receiver and the precoder block of its
    transmitter.
    """
    return AlignmentJacobian(
        cfg=channels.cfg, field=channels.field, matrix=channels.system.jacobian()
    )


def residuals(channels: ChannelSet, tilde: ReducedTransceivers) -> np.ndarray:
    """Evaluate all C constraint polynomials at a reduced point.

    Each value is constant + decorrelator term + precoder term + bilinear
    term, evaluated blockwise. At the all-zeros point this leaves just the
    constant, the direct channel coefficient h_kj(p, q). The result at row
    (k, j, p, q) equals entry (p, q) of U_k^H H_kj V_j for the
    reconstructed beamformers.

    The links are evaluated in stacks of equal shape. Each stacked block
    keeps the layout of the 2-d block it replaces (the point's column-major
    W_k^T and T_j, the channel's slices), so every product makes the same
    BLAS call per link, and the terms are summed in the same order: the
    result is the per-link loop's, bit for bit.
    """
    channels.require_complex()
    return channels.system.residuals(tilde.to_vector())


def residual_jacobian(channels: ChannelSet, tilde: ReducedTransceivers) -> np.ndarray:
    """Jacobian of :func:`residuals` at a reduced point (complex C x V).

    The residual is a polynomial in the stored variables, so this is an
    exact derivative, not a numerical estimate. At the all-zeros point it
    coincides with ``build_jacobian(channels).matrix``.
    """
    channels.require_complex()
    return channels.system.jacobian(tilde.to_vector())


def parse_dump(text: str):
    """Parse the :meth:`AlignmentJacobian.dump` text format.

    Returns (C, V, field_token, triplets) with 1-based (row, col, value)
    triplets; complex values come back as Python complex numbers.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty dump")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"malformed header: {lines[0]!r}")
    C, V, token = int(head[0]), int(head[1]), head[2]
    out = []
    for ln in lines[1:]:
        parts = ln.split()
        r, c = int(parts[0]), int(parts[1])
        if token == COMPLEX:
            if len(parts) != 4:
                raise ValueError(f"malformed complex triplet: {ln!r}")
            out.append((r, c, complex(float(parts[2]), float(parts[3]))))
        else:
            if len(parts) != 3:
                raise ValueError(f"malformed triplet: {ln!r}")
            out.append((r, c, int(parts[2])))
    return C, V, token, out
