"""The alignment coefficient matrix and the constraint residual map.

Every zero-forcing constraint, one per link (receiver k, transmitter j),
receive stream p and transmit stream q, is a polynomial in the reduced
transceiver variables. Collecting the linear-term coefficients of all C
constraints over all V variables gives a C x V matrix: the Jacobian of the
residual map at the identity-pinned origin. Its generic row rank decides
whether the constraints are independent enough to be solvable, which is
what the rank engine tests.

Row order: constraints sorted by (k, j, p, q) with the transmit stream q
fastest. Column order: the variable order that
:mod:`~iafeas.transceivers` owns (all decorrelator blocks, then all
precoder blocks, antenna index fastest within a stream column). Public
index maps are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .channels import ChannelSet
from .config import NetworkConfig, system_shape, validate_config
from .fields import COMPLEX, field_token
from .transceivers import ReducedTransceivers, block_starts


# ---------------------------------------------------------------------------
# index maps
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _row_offsets(cfg: NetworkConfig) -> MappingProxyType:
    """First row (0-based) of each link's block, computed once per config."""
    offs = {}
    pos = 0
    for k, j in cfg.cross_pairs():
        offs[(k, j)] = pos
        pos += cfg.d(k) * cfg.d(j)
    return MappingProxyType(offs)


def row_index(cfg: NetworkConfig, k: int, j: int, p: int, q: int) -> int:
    """1-based row of constraint (k, j, p, q)."""
    offs = _row_offsets(cfg)
    if (k, j) not in offs:
        raise ValueError(f"constraints only exist for links, not ({k}, {j})")
    if not 1 <= p <= cfg.d(k):
        raise ValueError(f"p={p} out of range 1..{cfg.d(k)}")
    if not 1 <= q <= cfg.d(j):
        raise ValueError(f"q={q} out of range 1..{cfg.d(j)}")
    return offs[(k, j)] + (p - 1) * cfg.d(j) + q


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


def _check_channels(cfg: NetworkConfig, channels: ChannelSet) -> None:
    if validate_config(cfg):
        # a pair with d_k > min(M_k, N_k) has no free block to place
        raise ValueError("the coefficient matrix needs a stream-admissible network")
    if channels.cfg != cfg:
        raise ValueError("channel set was sampled for a different configuration")


def _place(cfg: NetworkConfig, channels: ChannelSet, tilde) -> np.ndarray:
    """The one placement loop: linear coefficients at a reduced point.

    Row (k, j, p, q) holds row p of U_k^H H_kj, restricted to the free
    precoder entries, in transmitter j's block for stream q, and column q
    of H_kj V_j, restricted to the free decorrelator entries, in receiver
    k's block for stream p. ``tilde=None`` is the origin, where those are
    plain channel slices: no matrix products, and the matrix keeps the
    channels' field (complex128, or int64 residues for a prime).
    """
    C, V = system_shape(cfg)
    dtype = np.complex128 if channels.is_complex else np.int64
    A = np.zeros((C, V), dtype=dtype)

    starts = block_starts(cfg)

    r = 0
    for k, j in cfg.cross_pairs():
        H = channels.cross[(k, j)]
        dk, dj = cfg.d(k), cfg.d(j)
        un = cfg.N(k) - dk
        vm = cfg.M(j) - dj
        # U_k^H H_kj and H_kj V_j; at the origin the loop reads their rows
        # and columns straight from H_kj (the first d_k rows, d_j columns)
        UH = HV = H
        if tilde is not None:
            UH = H[:dk, :] + tilde.u[k - 1].T @ H[dk:, :]
            HV = H[:, :dj] + H[:, dj:] @ tilde.v[j - 1]
        for p in range(dk):
            ucol = starts[k - 1] + p * un
            for q in range(dj):
                vcol = starts[cfg.K + j - 1] + q * vm
                A[r, ucol : ucol + un] = HV[dk:, q]
                A[r, vcol : vcol + vm] = UH[p, dj:]
                r += 1
    return A


def build_jacobian(cfg: NetworkConfig, channels: ChannelSet) -> AlignmentJacobian:
    """Assemble the coefficient matrix from sampled channels.

    Works for complex and prime-field channels alike; placement only reads
    channel entries, never the field. Each row touches two column blocks:
    the decorrelator block of its receiver and the precoder block of its
    transmitter.
    """
    _check_channels(cfg, channels)
    return AlignmentJacobian(
        cfg=cfg, field=channels.field, matrix=_place(cfg, channels, None)
    )


def residuals(
    cfg: NetworkConfig, channels: ChannelSet, tilde: ReducedTransceivers
) -> np.ndarray:
    """Evaluate all C constraint polynomials at a reduced point.

    Each value is constant + decorrelator term + precoder term + bilinear
    term, evaluated blockwise. At the all-zeros point this leaves just the
    constant, the direct channel coefficient h_kj(p, q). The result at row
    (k, j, p, q) equals entry (p, q) of U_k^H H_kj V_j for the
    reconstructed beamformers.
    """
    _check_channels(cfg, channels)
    channels.require_complex()
    C, _ = system_shape(cfg)
    F = np.zeros(C, dtype=np.complex128)
    base = 0
    for k, j in cfg.cross_pairs():
        H = channels.cross[(k, j)]
        dk, dj = cfg.d(k), cfg.d(j)
        W = tilde.u[k - 1]
        T = tilde.v[j - 1]
        block = (
            H[:dk, :dj]
            + W.T @ H[dk:, :dj]
            + H[:dk, dj:] @ T
            + W.T @ H[dk:, dj:] @ T
        )
        F[base : base + dk * dj] = block.ravel(order="C")
        base += dk * dj
    return F


def residual_jacobian(
    cfg: NetworkConfig, channels: ChannelSet, tilde: ReducedTransceivers
) -> np.ndarray:
    """Jacobian of :func:`residuals` at a reduced point (complex C x V).

    The residual is a polynomial in the stored variables, so this is an
    exact derivative, not a numerical estimate. At the all-zeros point it
    coincides with ``build_jacobian(cfg, channels).matrix``.
    """
    _check_channels(cfg, channels)
    channels.require_complex()
    return _place(cfg, channels, tilde)


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
