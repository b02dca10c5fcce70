"""Every layer reads the interfering links from ``NetworkConfig.cross_pairs()``.

Each draw replaces ``cross_pairs`` on the class with a seeded random subset
of the full link set, kept in the original order, and checks that the
constraint count, the channel draw, the projected GF(p) rank, the
properness witness and the alternating solver all follow the subset. The
antenna budget is left out: its dynamic program is not driven by links.
``row_index`` follows a subset patched after a call on the full set.
"""

import numpy as np
import pytest

from iafeas import (
    NetworkConfig,
    alt_min,
    build_jacobian,
    col_index,
    gf_rank,
    properness_witness_from_cells,
    row_index,
    sample_channels,
    system_shape,
)
from iafeas.rank import _project_decorrelators

from helpers import gf_rank_reference, random_config

PRIME = (1 << 31) - 1
FULL_LINKS = NetworkConfig.cross_pairs
DRAWS = 60


def _draw(seed):
    """A configuration and a subset of its links, in cross_pairs() order.

    Every third draw also drops all links into one receiver, so that some
    receiver has no incoming link.
    """
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, k_lo=2, k_hi=5, mn_hi=6, d_hi=2)
    share = (0.3, 0.6, 0.9)[seed % 3]
    idle = int(rng.integers(1, cfg.K + 1)) if seed % 3 == 0 else None
    kept = [(k, j) for k, j in FULL_LINKS(cfg) if rng.random() < share and k != idle]
    return cfg, kept


def _deaf_receivers(cfg, kept):
    return set(range(1, cfg.K + 1)) - {k for k, _ in kept}


def test_draws_include_receivers_without_incoming_links():
    deaf = [seed for seed in range(DRAWS) if _deaf_receivers(*_draw(seed))]
    assert len(deaf) >= DRAWS // 3


@pytest.mark.parametrize("seed", range(DRAWS))
def test_every_layer_follows_the_link_set(monkeypatch, seed):
    cfg, kept = _draw(seed)
    _, V_full = system_shape(cfg)

    def subset(self):
        return (link for link in FULL_LINKS(self) if link in kept)

    monkeypatch.setattr(NetworkConfig, "cross_pairs", subset)
    assert list(cfg.cross_pairs()) == kept

    C, V = system_shape(cfg)
    assert (C, V) == (sum(cfg.d(k) * cfg.d(j) for k, j in kept), V_full)

    ch = sample_channels(cfg, seed, field=PRIME)
    assert list(ch.cross) == kept

    projected, R = _project_decorrelators(ch)
    A = build_jacobian(ch).matrix
    assert A.shape == (C, V)
    assert projected + gf_rank(R, PRIME) == gf_rank_reference(A, PRIME)

    # every stream cell selected: the witness, if any, cites kept links only
    rx = {(k, p) for k in range(1, cfg.K + 1) for p in range(1, cfg.d(k) + 1)}
    tx = {(j, q) for j in range(1, cfg.K + 1) for q in range(1, cfg.d(j) + 1)}
    w = properness_witness_from_cells(cfg, rx, tx)
    if w is not None:
        assert w.links <= set(kept) and w.holds(cfg)

    # each half-step minimizes the leakage over the kept links
    run = alt_min(sample_channels(cfg, seed, include_direct=True), max_iters=10)
    history = np.array(run.leakage_history)
    assert (np.diff(history) <= 1e-9 * (1 + history[:-1])).all()


def test_row_index_follows_the_link_set(monkeypatch):
    # a row offset cached per config would keep the full set's rows
    cfg = NetworkConfig.symmetric(3, 3, 3, 1)
    assert row_index(cfg, 3, 2, 1, 1) == 6
    kept = [(1, 2), (3, 2)]

    def subset(self):
        return (link for link in FULL_LINKS(self) if link in kept)

    monkeypatch.setattr(NetworkConfig, "cross_pairs", subset)
    ch = sample_channels(cfg, 0, field=PRIME)
    A = build_jacobian(ch).matrix
    assert A.shape[0] == 2
    for k, j, p, q in cfg.quads():
        row = A[row_index(cfg, k, j, p, q) - 1]
        H = ch.cross[(k, j)]
        for m in range(1, cfg.M(j) - cfg.d(j) + 1):
            assert row[col_index(cfg, ("v", j, m, q)) - 1] == H[p - 1, cfg.d(j) + m - 1]
        for n in range(1, cfg.N(k) - cfg.d(k) + 1):
            assert row[col_index(cfg, ("u", k, n, p)) - 1] == H[cfg.d(k) + n - 1, q - 1]
    with pytest.raises(ValueError, match="only exist for links"):
        row_index(cfg, 2, 1, 1, 1)
