"""Beamformer variables: full transceivers and their reduced free blocks.

Zero-forcing constraints are invariant under right-multiplication of any
beamformer by an invertible d x d matrix, so each decorrelator U_k and
precoder V_j can be normalized to have an identity top block. What remains
free is the lower (N_k - d_k) x d_k block of U_k and the lower
(M_j - d_j) x d_j block of V_j.

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


def _u_shape(cfg: NetworkConfig, k: int) -> tuple[int, int]:
    return (cfg.N(k) - cfg.d(k), cfg.d(k))


def _v_shape(cfg: NetworkConfig, j: int) -> tuple[int, int]:
    return (cfg.M(j) - cfg.d(j), cfg.d(j))


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
        if len(u) != self.cfg.K or len(v) != self.cfg.K:
            raise ValueError("need one u block and one v block per pair")
        for k in range(1, self.cfg.K + 1):
            if u[k - 1].shape != _u_shape(self.cfg, k):
                raise ValueError(
                    f"u block {k} has shape {u[k - 1].shape}, "
                    f"expected {_u_shape(self.cfg, k)}"
                )
            if v[k - 1].shape != _v_shape(self.cfg, k):
                raise ValueError(
                    f"v block {k} has shape {v[k - 1].shape}, "
                    f"expected {_v_shape(self.cfg, k)}"
                )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def zeros(cls, cfg: NetworkConfig) -> "ReducedTransceivers":
        return cls(
            cfg,
            tuple(np.zeros(_u_shape(cfg, k)) for k in range(1, cfg.K + 1)),
            tuple(np.zeros(_v_shape(cfg, j)) for j in range(1, cfg.K + 1)),
        )

    @classmethod
    def random(cls, cfg: NetworkConfig, rng: np.random.Generator, scale: float = 1.0):
        """Independent CN(0, scale**2) entries in every free slot."""

        def draw(shape):
            re = rng.standard_normal(shape)
            im = rng.standard_normal(shape)
            return scale * (re + 1j * im) / np.sqrt(2.0)

        return cls(
            cfg,
            tuple(draw(_u_shape(cfg, k)) for k in range(1, cfg.K + 1)),
            tuple(draw(_v_shape(cfg, j)) for j in range(1, cfg.K + 1)),
        )

    def to_vector(self) -> np.ndarray:
        """Flatten into the canonical variable order.

        All decorrelator blocks come first (pairs in ascending order, each
        flattened column by column, so the antenna index varies fastest),
        then all precoder blocks in the same discipline. This matches the
        column order of the alignment coefficient matrix.
        """
        parts = [blk.ravel(order="F") for blk in self.u]
        parts += [blk.ravel(order="F") for blk in self.v]
        return np.concatenate(parts)

    @classmethod
    def from_vector(cls, cfg: NetworkConfig, x) -> "ReducedTransceivers":
        """Inverse of :meth:`to_vector`."""
        x = np.asarray(x, dtype=np.complex128).ravel()
        u = []
        v = []
        pos = 0
        for k in range(1, cfg.K + 1):
            rows, cols = _u_shape(cfg, k)
            size = rows * cols
            u.append(x[pos : pos + size].reshape((rows, cols), order="F"))
            pos += size
        for j in range(1, cfg.K + 1):
            rows, cols = _v_shape(cfg, j)
            size = rows * cols
            v.append(x[pos : pos + size].reshape((rows, cols), order="F"))
            pos += size
        if pos != x.size:
            raise ValueError(f"vector has {x.size} entries, expected {pos}")
        return cls(cfg, tuple(u), tuple(v))

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
