import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iafeas import NetworkConfig, sample_channels

from helpers import per_link_channels

PRIME = (1 << 31) - 1


def test_shapes_and_keys():
    cfg = NetworkConfig.from_tuples([(2, 3, 1), (4, 5, 2), (3, 2, 1)])
    ch = sample_channels(cfg, seed=0, include_direct=True)
    assert set(ch.cross) == {(k, j) for k in (1, 2, 3) for j in (1, 2, 3) if k != j}
    for (k, j), H in ch.cross.items():
        assert H.shape == (cfg.N(k), cfg.M(j))
        assert H.dtype == np.complex128
    assert set(ch.direct) == {1, 2, 3}
    for k, H in ch.direct.items():
        assert H.shape == (cfg.N(k), cfg.M(k))


def test_seed_determinism():
    cfg = NetworkConfig.symmetric(3, 4, 4, 2)
    a = sample_channels(cfg, seed=42)
    b = sample_channels(cfg, seed=42)
    c = sample_channels(cfg, seed=43)
    for key in a.cross:
        assert np.array_equal(a.cross[key], b.cross[key])
    assert any(not np.array_equal(a.cross[key], c.cross[key]) for key in a.cross)


def test_cross_draw_independent_of_direct_flag():
    # adding direct channels must not shift the cross-channel stream
    cfg = NetworkConfig.symmetric(3, 3, 3, 1)
    plain = sample_channels(cfg, seed=9, include_direct=False)
    with_direct = sample_channels(cfg, seed=9, include_direct=True)
    for key in plain.cross:
        assert np.array_equal(plain.cross[key], with_direct.cross[key])
    assert plain.direct == {}


def test_complex_entries_unit_variance():
    cfg = NetworkConfig.from_tuples([(40, 40, 1), (40, 40, 1)])
    ch = sample_channels(cfg, seed=5)
    samples = np.concatenate([H.ravel() for H in ch.cross.values()])
    # CN(0,1): unit total variance, split evenly across re and im
    assert abs(np.mean(np.abs(samples) ** 2) - 1.0) < 0.05
    assert abs(np.var(samples.real) - 0.5) < 0.05
    assert abs(np.var(samples.imag) - 0.5) < 0.05


def test_prime_field_entries():
    cfg = NetworkConfig.symmetric(3, 4, 4, 1)
    ch = sample_channels(cfg, seed=1, field=PRIME)
    for H in ch.cross.values():
        assert H.dtype == np.int64
        assert H.min() >= 0
        assert H.max() < PRIME
    with pytest.raises(ValueError):
        ch.require_complex()


pairs = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 2))
networks = st.lists(pairs, min_size=1, max_size=4).map(NetworkConfig.from_tuples)


@settings(max_examples=40, deadline=None)
@given(networks, st.integers(0, 2**32))
def test_prime_field_draw_is_one_array_in_link_order(cfg, seed):
    ch = sample_channels(cfg, seed=seed, field=PRIME)
    links = list(cfg.cross_pairs())
    assert list(ch.cross) == links
    for (k, j), H in ch.cross.items():
        assert H.shape == (cfg.N(k), cfg.M(j))
        assert H.dtype == np.int64
        assert 0 <= H.min() and H.max() < PRIME
    # the blocks, row by row in link order, are one draw of the cross substream
    cross_ss, _ = np.random.SeedSequence(seed).spawn(2)
    total = sum(cfg.N(k) * cfg.M(j) for k, j in links)
    flat = np.random.default_rng(cross_ss).integers(0, PRIME, size=total, dtype=np.int64)
    got = [H.ravel() for H in ch.cross.values()]
    assert np.array_equal(np.concatenate(got) if got else flat[:0], flat)

    again = sample_channels(cfg, seed=seed, field=PRIME)
    with_direct = sample_channels(cfg, seed=seed, field=PRIME, include_direct=True)
    for key, H in ch.cross.items():
        assert np.array_equal(again.cross[key], H)
        assert np.array_equal(with_direct.cross[key], H)
    assert set(with_direct.direct) == set(range(1, cfg.K + 1))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(pairs, min_size=1, max_size=6).map(NetworkConfig.from_tuples),
    st.integers(0, 2**32),
    st.sampled_from(["complex", PRIME, 1048583]),
    st.booleans(),
)
def test_draw_matches_the_per_link_reference(cfg, seed, field, include_direct):
    ch = sample_channels(cfg, seed=seed, field=field, include_direct=include_direct)
    cross, direct = per_link_channels(cfg, seed, field, include_direct)
    for got, want in ((ch.cross, cross), (ch.direct, direct)):
        assert list(got) == list(want)
        for key, H in want.items():
            assert got[key].dtype == H.dtype and got[key].tobytes() == H.tobytes()


@settings(max_examples=40, deadline=None)
@given(networks, st.integers(0, 2**32), st.sets(st.integers(1, 4)))
def test_a_draw_for_some_receivers_is_one_array_of_their_links(cfg, seed, receivers):
    ch = sample_channels(cfg, seed=seed, field=PRIME, receivers=receivers)
    links = [(k, j) for k, j in cfg.cross_pairs() if k in receivers]
    assert list(ch.cross) == links
    cross_ss, _ = np.random.SeedSequence(seed).spawn(2)
    total = sum(cfg.N(k) * cfg.M(j) for k, j in links)
    flat = np.random.default_rng(cross_ss).integers(0, PRIME, size=total, dtype=np.int64)
    got = [H.ravel() for H in ch.cross.values()]
    assert np.array_equal(np.concatenate(got) if got else flat[:0], flat)


def test_a_draw_for_some_receivers_refuses_batches_and_system():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    for field in ("complex", PRIME):
        ch = sample_channels(cfg, seed=0, field=field, receivers=[1, 3])
        assert list(ch.cross) == [(1, 2), (1, 3), (3, 1), (3, 2)]
        for name in ("batches", "system"):
            with pytest.raises(ValueError, match="every cross link"):
                getattr(ch, name)
        assert ch.receivers == (1, 3)


def test_require_direct():
    cfg = NetworkConfig.symmetric(2, 2, 2, 1)
    ch = sample_channels(cfg, seed=0)
    with pytest.raises(ValueError):
        ch.require_direct()
    sample_channels(cfg, seed=0, include_direct=True).require_direct()


def test_rejects_bad_seed_and_field():
    cfg = NetworkConfig.symmetric(2, 2, 2, 1)
    with pytest.raises(ValueError):
        sample_channels(cfg, seed=-1)
    with pytest.raises(ValueError):
        sample_channels(cfg, seed=0, field=10)  # not a prime in range
