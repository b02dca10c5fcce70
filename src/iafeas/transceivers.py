"""Beamformer variables: full transceivers and their reduced free blocks.

Zero-forcing constraints are invariant under right-multiplication of any
beamformer by an invertible d x d matrix, so each decorrelator U_k and
precoder V_j can be normalized to have an identity top block. What remains
free is the lower (N_k - d_k) x d_k block of U_k and the lower
(M_j - d_j) x d_j block of V_j.

This module is the one owner of the variable order: every decorrelator
block first, pair ascending, then every precoder block the same way, each
flattened column by column. :func:`block_starts` gives where each block
starts; the coefficient matrix's columns follow it, but the rank test
lays out the precoder columns of its reduced matrix R itself.

Storage convention: for the decorrelators we store the conjugated lower
block. Entry ``u[k-1][n-1, p-1]`` is the coefficient that constraint column
p applies to receive antenna d_k + n, so the alignment residual becomes a
plain polynomial (no conjugations) in the stored numbers, and its linear
part is exactly the coefficient matrix this package builds. Reconstructing
the actual decorrelator conjugates the stored block back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig


@dataclass(frozen=True)
class TransceiverSet:
    """Full beamformers: U[k-1] is N_k x d_k, V[j-1] is M_j x d_j."""

    U: tuple
    V: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "U", tuple(np.asarray(u) for u in self.U))
        object.__setattr__(self, "V", tuple(np.asarray(v) for v in self.V))


def _shapes(cfg: NetworkConfig) -> list:
    """Block shapes in the variable order: u_1 .. u_K, then v_1 .. v_K."""
    u = [(pair.N - pair.d, pair.d) for pair in cfg.pairs]
    return u + [(pair.M - pair.d, pair.d) for pair in cfg.pairs]


def block_starts(cfg: NetworkConfig) -> list:
    """0-based start of each variable block, then the variable count V.

    Entry k - 1 is where decorrelator block u_k starts and entry K + j - 1
    where precoder block v_j starts; the last entry, 2K, is V.
    """
    starts = [0]
    for rows, cols in _shapes(cfg):
        starts.append(starts[-1] + rows * cols)
    return starts


@dataclass(frozen=True)
class ReducedTransceivers:
    """The free lower blocks of identity-pinned beamformers.

    ``u[k-1]`` has shape (N_k - d_k, d_k) and holds the conjugated
    decorrelator coefficients described in the module docstring. ``v[j-1]``
    has shape (M_j - d_j, d_j) and holds plain precoder entries.
    """

    cfg: NetworkConfig
    u: tuple
    v: tuple

    def __post_init__(self) -> None:
        u = tuple(np.asarray(blk, dtype=np.complex128) for blk in self.u)
        v = tuple(np.asarray(blk, dtype=np.complex128) for blk in self.v)
        K = self.cfg.K
        if len(u) != K or len(v) != K:
            raise ValueError("need one u block and one v block per pair")
        for i, (blk, shape) in enumerate(zip(u + v, _shapes(self.cfg))):
            if blk.shape != shape:
                side, k = ("u", i + 1) if i < K else ("v", i + 1 - K)
                raise ValueError(
                    f"{side} block {k} has shape {blk.shape}, expected {shape}"
                )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def row_major(self) -> bool:
        """Whether every block is stored row-major, as from :meth:`zeros`,
        :meth:`random` or plain arrays; :meth:`from_vector` blocks are
        column-major views."""
        return all(blk.flags.c_contiguous for blk in self.u + self.v)

    @classmethod
    def zeros(cls, cfg: NetworkConfig) -> "ReducedTransceivers":
        blocks = [np.zeros(shape) for shape in _shapes(cfg)]
        return cls(cfg, tuple(blocks[: cfg.K]), tuple(blocks[cfg.K :]))

    @classmethod
    def random(cls, cfg: NetworkConfig, rng: np.random.Generator, scale: float = 1.0):
        """Independent CN(0, scale**2) entries in every free slot."""

        def draw(shape):
            re = rng.standard_normal(shape)
            im = rng.standard_normal(shape)
            return scale * (re + 1j * im) / np.sqrt(2.0)

        blocks = [draw(shape) for shape in _shapes(cfg)]
        return cls(cfg, tuple(blocks[: cfg.K]), tuple(blocks[cfg.K :]))

    def to_vector(self) -> np.ndarray:
        """Flatten into the variable order of the module docstring.

        Each block is flattened column by column, so the antenna index
        varies fastest. This matches the column order of the alignment
        coefficient matrix.
        """
        parts = [blk.ravel(order="F") for blk in self.u]
        parts += [blk.ravel(order="F") for blk in self.v]
        return np.concatenate(parts)

    @classmethod
    def from_vector(cls, cfg: NetworkConfig, x) -> "ReducedTransceivers":
        """Inverse of :meth:`to_vector`."""
        x = np.asarray(x, dtype=np.complex128).ravel()
        starts = block_starts(cfg)
        if starts[-1] != x.size:
            raise ValueError(f"vector has {x.size} entries, expected {starts[-1]}")
        blocks = [
            x[a:b].reshape(shape, order="F")
            for a, b, shape in zip(starts, starts[1:], _shapes(cfg))
        ]
        return cls(cfg, tuple(blocks[: cfg.K]), tuple(blocks[cfg.K :]))

    def reconstruct(self) -> TransceiverSet:
        """Rebuild the full beamformers.

        Each decorrelator is the identity stacked over the conjugate of the
        stored block; each precoder is the identity stacked over the stored
        block as-is.
        """
        U = []
        V = []
        for k in range(1, self.cfg.K + 1):
            d = self.cfg.d(k)
            eye = np.eye(d, dtype=np.complex128)
            U.append(np.vstack([eye, np.conj(self.u[k - 1])]))
            V.append(np.vstack([eye, self.v[k - 1]]))
        return TransceiverSet(U=tuple(U), V=tuple(V))
