"""The numeric path against its per-link oracles, bit for bit.

``helpers.py`` keeps the per-link loops of ``alt_min``, the cross leakage,
the direct margin, ``residuals``, the placement and ``gauss_newton``. Each
draw takes a network of one to three pair types repeated over K = 1-6
pairs with d <= 3, and in about half the draws a subset of its links
patched into ``NetworkConfig.cross_pairs`` as ``test_links.py`` does.
Every float is compared by its bytes, so a signed zero or a last bit
that moves fails the test. A channel set's stacks hold the links it was
drawn with, whatever ``cross_pairs`` returns when they are first read.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from iafeas import (
    NetworkConfig,
    ReducedTransceivers,
    alt_min,
    build_jacobian,
    gauss_newton,
    residual_jacobian,
    residuals,
    sample_channels,
    verify_ia,
)

from helpers import (
    alt_min_reference,
    direct_margin_reference,
    gauss_newton_reference,
    max_cross_reference,
    place_reference,
    residuals_reference,
)

PRIME = (1 << 31) - 1
FULL_LINKS = NetworkConfig.cross_pairs

TEN_8X8 = (NetworkConfig.symmetric(10, 8, 8, 1), None)
FIVE_3X4 = (NetworkConfig.symmetric(5, 3, 4, 1), None)
MIXED_3 = (NetworkConfig.from_tuples([(2, 3, 1), (3, 2, 1), (3, 3, 1)]), None)


@st.composite
def networks(draw, k_hi=6, d_hi=3, slack=4):
    """A network of repeated pair types, and a link subset or None."""
    kinds = draw(st.integers(1, 3))
    types = []
    for _ in range(kinds):
        d = draw(st.integers(1, d_hi))
        types.append((d + draw(st.integers(0, slack)), d + draw(st.integers(0, slack)), d))
    K = draw(st.integers(1, k_hi))
    cfg = NetworkConfig.from_tuples(
        [types[draw(st.integers(0, kinds - 1))] for _ in range(K)]
    )
    kept = None
    if K > 1 and draw(st.booleans()):
        kept = [link for link in FULL_LINKS(cfg) if draw(st.booleans())]
    return cfg, kept


@contextlib.contextmanager
def links_of(kept):
    """Patch ``cross_pairs`` to the kept links, in link order."""
    if kept is None:
        yield
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            NetworkConfig,
            "cross_pairs",
            lambda self: (link for link in FULL_LINKS(self) if link in kept),
        )
        yield


def same(a, b):
    """Equal dtype, shape and bytes."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_floats(a, b):
    return len(a) == len(b) and all(same(np.float64(x), np.float64(y)) for x, y in zip(a, b))


def points(cfg, seed):
    """The origin, a row-major random point and a column-major one.

    ``zeros`` and ``random`` hold C-ordered blocks; ``from_vector`` holds
    F-ordered views of one vector, as ``gauss_newton`` makes them.
    """
    rng = np.random.default_rng(seed)
    drawn = ReducedTransceivers.random(cfg, rng)
    viewed = ReducedTransceivers.from_vector(
        cfg, ReducedTransceivers.random(cfg, rng).to_vector()
    )
    return ReducedTransceivers.zeros(cfg), drawn, viewed


def stacked_links(batches):
    """The links of a channel set's stacks, in link order, with their channels."""
    links = {}
    for b in batches:
        for i, k, j, H in zip(b.index.tolist(), b.rx.tolist(), b.tx.tolist(), b.H):
            links[i] = ((k + 1, j + 1), H)
    return [links[i] for i in range(len(links))]


def test_the_stacks_belong_to_their_channel_set():
    cfg = NetworkConfig.from_tuples([(2, 3, 1), (3, 2, 1), (3, 3, 1), (2, 3, 1)])
    full = list(FULL_LINKS(cfg))
    subsets = [full[::2], full[1::3]]
    drawn = []
    for kept in subsets:
        with links_of(kept):
            drawn.append(sample_channels(cfg, 5, include_direct=True))
    for kept, ch in zip(subsets, drawn):
        stacked = stacked_links(ch.batches)
        assert [link for link, _ in stacked] == kept
        assert all(same(H, ch.cross[link]) for link, H in stacked)
        direct = stacked_links(ch.direct_batches)
        assert [link for link, _ in direct] == [(k, k) for k in range(1, cfg.K + 1)]
        assert all(same(H, ch.direct[k]) for (k, _), H in direct)
        # shared by every caller, so never written
        assert ch.batches is ch.batches
        with pytest.raises(ValueError, match="read-only"):
            ch.batches[0].H[0, 0, 0] = 0


@settings(max_examples=60, deadline=None)
@given(networks(), st.integers(0, 2**16))
@example(TEN_8X8, 0)
@example(FIVE_3X4, 1)
@example(MIXED_3, 2)
def test_placement_and_residuals_match_the_per_link_code(net, seed):
    cfg, kept = net
    with links_of(kept):
        ch = sample_channels(cfg, seed)
        for tilde in points(cfg, seed):
            assert same(residuals(ch, tilde), residuals_reference(cfg, ch, tilde))
            assert same(
                residual_jacobian(ch, tilde), place_reference(cfg, ch, tilde)
            )
        assert same(build_jacobian(ch).matrix, place_reference(cfg, ch, None))
        gf = sample_channels(cfg, seed, field=PRIME)
        assert same(build_jacobian(gf).matrix, place_reference(cfg, gf, None))


@settings(max_examples=40, deadline=None)
@given(networks(), st.integers(0, 2**16), st.integers(0, 20))
@example(TEN_8X8, 0, 500)
@example(FIVE_3X4, 0, 500)
@example(MIXED_3, 3, 500)
def test_alt_min_matches_the_per_link_code(net, seed, max_iters):
    cfg, kept = net
    with links_of(kept):
        ch = sample_channels(cfg, seed, include_direct=True)
        run = alt_min(ch, max_iters=max_iters, seed=seed % 7)
        U, V, history, iterations, margin = alt_min_reference(
            cfg, ch, max_iters=max_iters, seed=seed % 7
        )
        assert run.iterations == iterations
        assert same_floats(run.leakage_history, history)
        assert same(run.leakage, history[-1])
        assert all(same(a, b) for a, b in zip(run.transceivers.U, U))
        assert all(same(a, b) for a, b in zip(run.transceivers.V, V))
        assert same(run.direct_rank_margin, margin)

        check = verify_ia(ch, run.transceivers)
        assert same(check.max_cross, max_cross_reference(cfg, ch, U, V))
        assert same(check.min_margin, margin)


@settings(max_examples=25, deadline=None)
@given(networks(k_hi=4, d_hi=2, slack=3), st.integers(0, 2**16))
@example(TEN_8X8, 0)
@example(FIVE_3X4, 0)
@example(MIXED_3, 0)
def test_gauss_newton_matches_the_per_link_code(net, seed):
    cfg, kept = net
    with links_of(kept):
        ch = sample_channels(cfg, seed, include_direct=True)
        rng = np.random.default_rng(seed)
        for init in (ReducedTransceivers.zeros(cfg), ReducedTransceivers.random(cfg, rng, 0.5)):
            run = gauss_newton(ch, init=init)
            iterations, history, residual_norm, x, note = gauss_newton_reference(cfg, ch, init)
            assert run.iterations == iterations
            assert same_floats(run.leakage_history, history)
            assert same(run.residual_norm, residual_norm)
            assert same(run.tilde.to_vector(), x)
            assert run.note == note

            tx = ReducedTransceivers.from_vector(cfg, x).reconstruct()
            margin = direct_margin_reference(cfg, ch, tx.U, tx.V)
            assert same(run.direct_rank_margin, margin)
            check = verify_ia(ch, run.transceivers)
            assert same(check.max_cross, max_cross_reference(cfg, ch, tx.U, tx.V))
            assert same(check.min_margin, margin)
