"""Channel sampling for interference networks.

Cross links H_kj (transmitter j into receiver k, k != j) drive every
feasibility test in this package. Direct links H_kk only matter to the
iterative solvers, so they are sampled from an independent substream and
only on request; asking for them never changes the cross-link draw.

A prime-field realization draws all its cross-link entries with one
generator call, in ``cfg.cross_pairs()`` order: the first N_k * M_j
entries are H_kj of the first link, row by row, the next ones the second
link's, and so on. Each ``cross[(k, j)]`` is a view of its block of that
one array. A complex realization draws link by link, real parts then
imaginary parts, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig
from .fields import COMPLEX, validate_field


@dataclass(frozen=True)
class ChannelSet:
    """Sampled channel matrices of one network.

    Attributes
    ----------
    cfg : NetworkConfig
        The network the matrices were drawn for.
    field : "complex" or int
        Scalar field of the entries. Complex entries are CN(0, 1), prime
        field entries are uniform over [0, p).
    seed : int
        Master seed the draw derived from.
    cross : dict
        cross[(k, j)] is the N_k x M_j matrix of the link from transmitter
        j into receiver k, for every ordered pair k != j.
    direct : dict
        direct[k] is the N_k x M_k direct link, present only when the set
        was sampled with ``include_direct=True``.

    Instances are treated as immutable; never write into the arrays.
    """

    cfg: NetworkConfig
    field: object
    seed: int
    cross: dict
    direct: dict

    @property
    def is_complex(self) -> bool:
        return self.field == COMPLEX

    def require_complex(self) -> None:
        if not self.is_complex:
            raise ValueError("this operation needs complex-valued channels")

    def require_direct(self) -> None:
        if len(self.direct) != self.cfg.K:
            raise ValueError(
                "this operation needs direct links; sample with include_direct=True"
            )


def _draw(rng: np.random.Generator, rows: int, cols: int, field) -> np.ndarray:
    if field == COMPLEX:
        re = rng.standard_normal((rows, cols))
        im = rng.standard_normal((rows, cols))
        return (re + 1j * im) / np.sqrt(2.0)
    return rng.integers(0, field, size=(rows, cols), dtype=np.int64)


def sample_channels(
    cfg: NetworkConfig,
    seed: int,
    field=COMPLEX,
    include_direct: bool = False,
) -> ChannelSet:
    """Draw one channel realization.

    Parameters
    ----------
    cfg : NetworkConfig
    seed : int
        Non-negative master seed. Equal seeds reproduce the draw bit for
        bit (PCG64 generator).
    field : "complex" or int prime
        Complex entries are CN(0, 1), i.e. independent real and imaginary
        parts with variance 1/2 each. A prime modulus p gives independent
        uniform draws over [0, p); moduli below 2**20 are rejected.
    include_direct : bool
        Also draw the K direct links H_kk. The direct draw uses a spawned
        substream, so the cross links are identical with or without it.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    field = validate_field(field)

    root = np.random.SeedSequence(seed)
    cross_ss, direct_ss = root.spawn(2)

    rng = np.random.default_rng(cross_ss)
    links = list(cfg.cross_pairs())
    if field == COMPLEX:
        cross = {(k, j): _draw(rng, cfg.N(k), cfg.M(j), field) for k, j in links}
    else:
        # one call for every link; each block is a view (module docstring)
        sizes = [cfg.N(k) * cfg.M(j) for k, j in links]
        flat = rng.integers(0, field, size=sum(sizes), dtype=np.int64)
        cross = {}
        start = 0
        for (k, j), size in zip(links, sizes):
            cross[(k, j)] = flat[start : start + size].reshape(cfg.N(k), cfg.M(j))
            start += size

    direct = {}
    if include_direct:
        rng_d = np.random.default_rng(direct_ss)
        for k in range(1, cfg.K + 1):
            direct[k] = _draw(rng_d, cfg.N(k), cfg.M(k), field)

    return ChannelSet(cfg=cfg, field=field, seed=seed, cross=cross, direct=direct)
