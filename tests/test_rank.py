import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import iafeas.rank
from iafeas import (
    ChannelSet,
    NetworkConfig,
    build_jacobian,
    generic_full_row_rank,
    gf_rank,
    sample_channels,
    system_shape,
)
from iafeas.rank import _SLICE_COLUMNS, _project_decorrelators

from helpers import gf_rank_reference, numeric_rank, random_config

PRIME = (1 << 31) - 1


def test_numeric_rank_basics():
    assert numeric_rank(np.eye(4)) == 4
    assert numeric_rank(np.zeros((3, 5))) == 0
    v = np.arange(1, 5, dtype=float)
    assert numeric_rank(np.outer(v, v)) == 1
    A = np.vstack([np.eye(3), np.eye(3)])
    assert numeric_rank(A) == 3
    assert numeric_rank(np.zeros((0, 4))) == 0


def test_numeric_rank_tolerance_threshold():
    # build matrices with a controlled smallest singular value: far below
    # the spectral tolerance it must vanish, far above it must count
    rng = np.random.default_rng(0)
    Q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    Q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    near = Q1 @ np.diag([1.0, 1.0, 1e-17]) @ Q2
    assert numeric_rank(near) == 2
    clear = Q1 @ np.diag([1.0, 1.0, 1e-10]) @ Q2
    assert numeric_rank(clear) == 3


def test_numeric_rank_rejects_nonfinite():
    with pytest.raises(ValueError):
        numeric_rank(np.array([[1.0, np.nan]]))


def test_gf_rank_small_cases():
    assert gf_rank(np.eye(5, dtype=np.int64), PRIME) == 5
    assert gf_rank(np.array([[1, 2], [2, 4]], dtype=np.int64), PRIME) == 1
    assert gf_rank(np.zeros((3, 3), dtype=np.int64), PRIME) == 0
    # values wrap mod p
    p = PRIME
    assert gf_rank(np.array([[p - 1, p - 1], [p - 1, p - 1]], dtype=np.int64), p) == 1
    assert gf_rank(np.array([[p, 0], [0, 1]], dtype=np.int64), p) == 1
    # the caller's array is reduced in a copy, never in place
    A = np.array([[p + 3, -1], [2 * p, 5]], dtype=np.int64)
    kept = A.copy()
    assert gf_rank(A, p) == 2
    assert np.array_equal(A, kept)


def test_gf_rank_rejects_invalid_modulus():
    for bad in (4, (1 << 20) + 1, 1 << 31, "complex"):
        with pytest.raises(ValueError):
            gf_rank(np.eye(2, dtype=np.int64), bad)


def test_gf_rank_rejects_float():
    with pytest.raises(ValueError):
        gf_rank(np.eye(2))


def test_gf_rank_matches_numeric_on_structured_products():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        r = int(rng.integers(1, min(n, m) + 1))
        B = rng.integers(-5, 6, size=(n, r))
        C = rng.integers(-5, 6, size=(r, m))
        A = B @ C
        expect = numeric_rank(A.astype(float))
        assert gf_rank(A % PRIME, PRIME) == expect


def _test_matrix(kind, m, n, p, seed):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return rng.integers(0, p, size=(m, n))
    if kind == "product":
        # rank-deficient product; its inner dimension crosses 64 for larger shapes
        r = int(rng.integers(0, min(m, n) + 1))
        return rng.integers(0, 1000, size=(m, r)) @ rng.integers(0, 1000, size=(r, n))
    if kind == "sparse":
        A = rng.integers(0, p, size=(m, n)) * (rng.random((m, n)) < 0.1)
        A[:, rng.random(n) < 0.2] = 0
        return A
    return np.full((m, n), p - 1)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["dense", "product", "sparse", "all p-1"]),
    st.integers(1, 200),
    st.integers(1, 200),
    st.sampled_from([1048583, 2147483629, PRIME]),
    st.integers(0, 2**32 - 1),
)
# pinned large draws: inner ranks 153 and 85, both above 64
@example("product", 200, 180, PRIME, 0)
@example("product", 180, 200, 1048583, 1)
@example("sparse", 200, 120, 2147483629, 0)
@example("all p-1", 90, 200, PRIME, 0)
def test_gf_rank_matches_reference(kind, m, n, p, seed):
    A = _test_matrix(kind, m, n, p, seed)
    assert gf_rank(A, p) == gf_rank_reference(A, p)


@pytest.mark.parametrize("inner, density", [(280, 1.0), (40, 1.0), (300, 0.1)])
def test_gf_rank_matches_reference_across_slices(inner, density):
    # 600 columns: the top-level updates are 300 columns wide, so they run
    # in more than one slice; inner rank 40 keeps the first update one-sided
    assert 300 > _SLICE_COLUMNS
    rng = np.random.default_rng(inner)
    A = rng.integers(0, PRIME, size=(300, inner)) @ rng.integers(0, 1000, size=(inner, 600))
    A = A * (rng.random(A.shape) < density)
    assert gf_rank(A, PRIME) == gf_rank_reference(A, PRIME)


def test_gf_rank_matches_reference_on_ladder_jacobian():
    cfg = NetworkConfig.symmetric(9, 10, 10, 2)  # C = V = 288
    A = build_jacobian(cfg, sample_channels(cfg, seed=4, field=PRIME)).matrix
    assert A.shape == (288, 288)
    assert gf_rank(A, PRIME) == gf_rank_reference(A, PRIME) == 288
    # the same rows twice over: rank-deficient, tall
    B = np.vstack([A[:200], A[100:]])
    assert gf_rank(B, PRIME) == gf_rank_reference(B, PRIME) == 288


def test_generic_rank_feasible_case_both_modes():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    for mode in ("gf", "numeric"):
        v = generic_full_row_rank(cfg, mode=mode, seed=0)
        assert v.full_row_rank
        assert v.rank == 6
        assert v.status == "feasible-sufficient"
        assert v.trials >= 1
        assert len(v.trial_seeds) == len(v.trial_ranks)


def test_generic_rank_shortcut_more_constraints_than_variables():
    cfg = NetworkConfig.symmetric(4, 2, 2, 1)
    v = generic_full_row_rank(cfg)
    assert not v.full_row_rank
    assert v.status == "rank-deficient"
    assert v.trial_ranks == ()
    assert "more constraints" in v.note


def test_generic_rank_shortcut_stream_support():
    # d_1 > min(M_1, N_1): the matrix is not defined, so nothing is built
    cfg = NetworkConfig.from_tuples([(1, 3, 2), (4, 4, 1)])
    v = generic_full_row_rank(cfg)
    assert not v.full_row_rank
    assert (v.trials, v.rank, v.trial_ranks) == (0, None, ())
    assert "stream support" in v.note


def test_generic_rank_trivial_no_constraints():
    cfg = NetworkConfig.from_tuples([(4, 4, 2)])
    v = generic_full_row_rank(cfg)
    assert v.full_row_rank
    assert v.C == 0


def test_generic_rank_proper_but_deficient():
    # two pairs, three antennas, two streams each: square (8 constraints,
    # 8 variables) and proper, yet the system is structurally rank
    # deficient, the classic gap between properness and feasibility
    cfg = NetworkConfig.symmetric(2, 3, 3, 2)
    for mode in ("gf", "numeric"):
        v = generic_full_row_rank(cfg, mode=mode, trials=3, seed=1)
        assert not v.full_row_rank, mode
        assert len(v.trial_ranks) == 3
        assert all(r < v.C for r in v.trial_ranks)
    gf = generic_full_row_rank(cfg, mode="gf", trials=3, seed=1)
    assert gf.error_bound is not None
    assert gf.error_bound <= (gf.C / gf.modulus) ** 3


def test_generic_rank_deterministic():
    cfg = NetworkConfig.symmetric(3, 3, 3, 1)
    a = generic_full_row_rank(cfg, seed=5)
    b = generic_full_row_rank(cfg, seed=5)
    assert a == b
    c = generic_full_row_rank(cfg, seed=6)
    assert c.trial_seeds != a.trial_seeds


def test_modes_agree_on_random_configs():
    rng = np.random.default_rng(23)
    for _ in range(25):
        cfg = random_config(rng)
        gf = generic_full_row_rank(cfg, mode="gf", seed=2)
        num = generic_full_row_rank(cfg, mode="numeric", seed=2)
        assert gf.full_row_rank == num.full_row_rank, cfg.describe()


def test_verdict_to_dict_is_json_friendly():
    import json

    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    v = generic_full_row_rank(cfg)
    text = json.dumps(v.to_dict())
    assert "full_row_rank" in text


# ---------------------------------------------------------------------------
# prime-field generic rank: the decorrelator projection
# ---------------------------------------------------------------------------


def _g_rank_sum(cfg, ch, p):
    """sum_k d_k * rank G_k, with G_k[(j, q), n] = H_kj[d_k + n, q]."""
    total = 0
    for k in range(1, cfg.K + 1):
        dk = cfg.d(k)
        G = np.vstack(
            [ch.cross[(k, j)][dk:, : cfg.d(j)].T for j in range(1, cfg.K + 1) if j != k]
        )
        total += dk * gf_rank_reference(G, p)
    return total


@st.composite
def _square_or_wide_configs(draw):
    """K 2-6, d <= 3, antennas d plus a slack that may be 0; C <= V."""
    K = draw(st.integers(2, 6))
    slack = st.integers(0, 2 * K)
    pairs = []
    for _ in range(K):
        d = draw(st.integers(1, 3))
        pairs.append((d + draw(slack), d + draw(slack), d))
    cfg = NetworkConfig.from_tuples(pairs)
    C, V = system_shape(cfg)
    assume(C <= V)
    return cfg


_EMPTY_BLOCKS = NetworkConfig.from_tuples([(3, 1, 1), (1, 3, 1), (3, 3, 1)])
_EMPTY_BLOCKS_D2 = NetworkConfig.from_tuples([(6, 2, 2), (2, 6, 2), (6, 6, 2), (5, 5, 1)])


@settings(max_examples=60, deadline=None)
@given(
    _square_or_wide_configs(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1048583, PRIME]),
)
# N_1 = d_1 (G_1 has no columns) and M_2 = d_2 (pair 2 has no precoder columns)
@example(_EMPTY_BLOCKS, False, 0, PRIME)
@example(_EMPTY_BLOCKS, True, 0, PRIME)
@example(_EMPTY_BLOCKS_D2, False, 1, PRIME)
@example(_EMPTY_BLOCKS_D2, True, 3, 1048583)
# Z_2 and Z_3 have one shape but differ: catches a Z_k taken from the wrong receiver
@example(NetworkConfig.from_tuples([(2, 4, 2), (3, 5, 1), (2, 3, 1)]), True, 0, 1048583)
def test_projected_rank_equals_full_matrix_rank(cfg, binary, seed, p):
    # 0/1 channels make zero pivots and rank-deficient G_k common
    if binary:
        rng = np.random.default_rng(seed)
        cross = {
            (k, j): rng.integers(0, 2, size=(cfg.N(k), cfg.M(j)))
            for k, j in cfg.cross_pairs()
        }
        ch = ChannelSet(cfg=cfg, field=p, seed=seed, cross=cross, direct={})
    else:
        ch = sample_channels(cfg, seed, field=p)
    projected, R = _project_decorrelators(cfg, ch, p)
    C, _ = system_shape(cfg)
    precoder_cols = sum((cfg.M(j) - cfg.d(j)) * cfg.d(j) for j in range(1, cfg.K + 1))
    assert projected == _g_rank_sum(cfg, ch, p)
    assert R.shape == (C - projected, precoder_cols)
    full = gf_rank_reference(build_jacobian(cfg, ch).matrix, p)
    assert projected + gf_rank(R, p) == full


@pytest.mark.parametrize(
    "pairs, ranks",
    [
        # the README gap config: passes every counting test, rank 14 of 16
        (((1, 1, 1), (4, 4, 2), (4, 4, 2)), (14, 14, 14)),
        (((5, 6, 2), (2, 4, 2), (2, 5, 2)), (23, 23, 23)),
        (((3, 3, 2),) * 2, (6, 6, 6)),
        (((17, 17, 2),) * 16, (960,)),
    ],
)
def test_generic_gf_rank_pinned_draws(pairs, ranks):
    cfg = NetworkConfig.from_tuples(pairs)
    v = generic_full_row_rank(cfg, mode="gf", seed=0)
    assert v.trial_ranks == ranks
    for ts, r in zip(v.trial_seeds, v.trial_ranks):
        A = build_jacobian(cfg, sample_channels(cfg, ts, field=PRIME)).matrix
        assert gf_rank_reference(A, PRIME) == r


def test_gf_mode_ranks_the_reduced_matrix_once_per_trial(monkeypatch):
    # the kernel sees C - sum_k d_k rank G_k rows, once per trial, and
    # through the module attribute, where a tracer can wrap it
    calls = []
    kernel = iafeas.rank.gf_rank

    def counting(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return kernel(matrix, *args, **kwargs)

    monkeypatch.setattr(iafeas.rank, "gf_rank", counting)
    for pairs in [((3, 3, 2),) * 2, ((1, 1, 1), (4, 4, 2), (4, 4, 2)), ((4, 4, 1),) * 4]:
        cfg = NetworkConfig.from_tuples(pairs)
        calls.clear()
        v = generic_full_row_rank(cfg, mode="gf", seed=3, trials=3)
        assert len(calls) == v.trials
        for shape, ts in zip(calls, v.trial_seeds):
            ch = sample_channels(cfg, ts, field=PRIME)
            assert shape[0] == v.C - _g_rank_sum(cfg, ch, PRIME)
