"""Channel sampling for interference networks.

Cross links H_kj (transmitter j into receiver k, k != j) drive every
feasibility test in this package. Direct links H_kk only matter to the
iterative solvers, so they are sampled from an independent substream and
only on request; asking for them never changes the cross-link draw.

A realization draws all its cross links with one generator call, in
``cfg.cross_pairs()`` order, and the direct links with another, pair by
pair. Over a prime field the first N_k * M_j entries are H_kj of the
first link, row by row, the next ones the second link's, and so on, and
each block is a view of that one array. A complex block takes twice as
many normals, its real parts row by row and then its imaginary parts.
A draw for some receivers takes only the links into them, in the same
order and with the same one call; the rank test's group point reads no
others.

The numeric layers take a channel set alone, since it carries its
network. They work on :attr:`ChannelSet.batches` and
:attr:`ChannelSet.direct_batches`: the links of one shape (N_k, M_j, d_k,
d_j), in link order, with their channels in one stack, so that one product
serves every link of a shape; and on :attr:`ChannelSet.system`, the
alignment equations. Each is built once and shared read-only, and only
for a set that holds every cross link.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import NetworkConfig
from .fields import COMPLEX, validate_field
from .jacobian import AlignmentSystem


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
        j into receiver k, for every ordered pair k != j, or only for those
        into ``receivers``.
    direct : dict
        direct[k] is the N_k x M_k direct link, present only when the set
        was sampled with ``include_direct=True``.
    receivers : tuple or None
        The receivers a set drawn for some receivers holds the cross links
        into; None when it holds every cross link.

    Instances are treated as immutable; never write into the arrays.
    :attr:`batches` stacks the cross links and :attr:`direct_batches` the
    direct ones, each built on first use and shared read-only, like
    :attr:`system`.
    """

    cfg: NetworkConfig
    field: object
    seed: int
    cross: dict
    direct: dict
    receivers: tuple | None = None

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

    @cached_property
    def batches(self) -> tuple:
        """The cross links, in the order of ``cross``, as :class:`LinkBatch` stacks."""
        if self.receivers is not None:
            raise ValueError("this operation needs every cross link; sample without receivers")
        return _stack_links(self.cfg, self.cross)

    @cached_property
    def direct_batches(self) -> tuple:
        """The direct links (k, k), k = 1..K, as :class:`LinkBatch` stacks."""
        return _stack_links(self.cfg, {(k, k): H for k, H in self.direct.items()})

    @cached_property
    def system(self) -> AlignmentSystem:
        """The :class:`~iafeas.jacobian.AlignmentSystem` of the cross links."""
        return AlignmentSystem(self)


@dataclass(frozen=True)
class LinkBatch:
    """The links of one shape (N_k, M_j, d_k, d_j), in link order.

    ``index`` holds each link's position among the links stacked, and
    ``rx`` and ``tx`` its receiver k - 1 and transmitter j - 1 (0-based
    array indices). ``H`` stacks the links' channels into one (B, N_k, M_j)
    array; each matrix keeps the row-major layout of its channel.
    """

    shape: tuple
    index: np.ndarray
    rx: np.ndarray
    tx: np.ndarray
    H: np.ndarray


def _stack_links(cfg: NetworkConfig, links: dict) -> tuple:
    """Group links of equal shape into read-only :class:`LinkBatch` stacks.

    ``links`` maps each link (k, j) to H_kj, in link order. Batches come
    in the order of their first link, each listing its links in order.
    """
    groups: dict = {}
    for i, (k, j) in enumerate(links):
        rx, tx = cfg.pairs[k - 1], cfg.pairs[j - 1]
        groups.setdefault((rx.N, tx.M, rx.d, tx.d), []).append((i, k - 1, j - 1))
    batches = []
    for shape, members in groups.items():
        index, rx, tx = np.array(members, dtype=np.intp).T
        H = np.array([links[(k + 1, j + 1)] for _, k, j in members])
        for array in (index, rx, tx, H):
            array.setflags(write=False)
        batches.append(LinkBatch(shape, index, rx, tx, H))
    return tuple(batches)


def _draw(rng: np.random.Generator, shapes, field) -> list:
    """One block per shape, all from one generator call (module docstring)."""
    sizes = [rows * cols for rows, cols in shapes]
    if field == COMPLEX:
        step, flat = 2, rng.standard_normal(2 * sum(sizes))
    else:
        step, flat = 1, rng.integers(0, field, size=sum(sizes), dtype=np.int64)
    blocks = []
    start = 0
    for shape, size in zip(shapes, sizes):
        block = flat[start : start + step * size]
        if field == COMPLEX:
            block = (block[:size] + 1j * block[size:]) / np.sqrt(2.0)
        blocks.append(block.reshape(shape))
        start += step * size
    return blocks


def sample_channels(
    cfg: NetworkConfig,
    seed: int,
    field=COMPLEX,
    include_direct: bool = False,
    receivers=None,
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
    receivers : collection of int, optional
        Draw only the cross links into these 1-based receivers (module
        docstring). Such a set refuses :attr:`ChannelSet.batches` and
        :attr:`ChannelSet.system`.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    field = validate_field(field)

    root = np.random.SeedSequence(seed)
    cross_ss, direct_ss = root.spawn(2)

    links = [(k, j) for k, j in cfg.cross_pairs() if receivers is None or k in receivers]
    shapes = [(cfg.N(k), cfg.M(j)) for k, j in links]
    cross = dict(zip(links, _draw(np.random.default_rng(cross_ss), shapes, field)))

    direct = {}
    if include_direct:
        shapes = [(cfg.N(k), cfg.M(k)) for k in range(1, cfg.K + 1)]
        blocks = _draw(np.random.default_rng(direct_ss), shapes, field)
        direct = dict(enumerate(blocks, start=1))

    return ChannelSet(
        cfg=cfg, field=field, seed=seed, cross=cross, direct=direct,
        receivers=None if receivers is None else tuple(receivers),
    )
