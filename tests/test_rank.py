import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import iafeas.rank
from iafeas import (
    ChannelSet,
    NetworkConfig,
    build_jacobian,
    col_index,
    feasibility_report,
    generic_full_row_rank,
    gf_rank,
    row_index,
    sample_channels,
    system_shape,
)
from iafeas.rank import (
    _LEAF_COLUMNS,
    _LEAF_DELAY,
    _LIMB,
    _SLICE_COLUMNS,
    _center,
    _fold,
    _gf_rank_at,
    _group_point,
    _group_prime,
    _inner_steps,
    _left_null_basis,
    _project_decorrelators,
    _split,
    _stack_ranks,
    _sub_product,
)

from helpers import (
    gf_rank_reference,
    mixed_rung,
    numeric_rank,
    random_config,
    structured_channels,
    trial_division_is_prime,
)

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
    if kind in ("block", "pivot block"):
        # zero below the top rows in the left half of the columns, where
        # the top node finds its pivots (when m >= n, so that the matrix is
        # not transposed). "block" has more top rows than pivots there, so
        # some rows below the pivots stay nonzero in the pivot columns;
        # "pivot block" has only pivot rows on top, so every row below them
        # is zero there. Both parts are products of a short inner
        # dimension, so that a wrong update shows in the rank.
        if kind == "block":
            top = min(m, (m + n // 2) // 2)
            inner = (n // 2 + top) // 2
        else:
            top = inner = min(m, n // 4)
        high = rng.integers(0, 1000, size=(m, inner))
        A = high @ rng.integers(0, 1000, size=(inner, n))
        low = rng.integers(0, 1000, size=(m - top, n // 8))
        A[top:] = low @ rng.integers(0, 1000, size=(n // 8, n))
        A[top:, : n // 2] = 0
        return A
    return np.full((m, n), p - 1)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["dense", "product", "sparse", "all p-1", "block", "pivot block"]),
    st.integers(1, 200),
    st.integers(1, 200),
    st.sampled_from([1048583, 2147483629, PRIME]),
    st.integers(0, 2**32 - 1),
)
# pinned large draws: inner ranks 153 and 85 make the top-level updates
# longer than a block with one reduction (42 terms at these primes)
@example("product", 200, 180, PRIME, 0)
@example("product", 180, 200, 1048583, 1)
@example("sparse", 200, 120, 2147483629, 0)
@example("all p-1", 90, 200, PRIME, 0)
# pinned zero blocks: inner nodes whose trailing update meets rows that
# are zero in the pivot columns, some of them or all
@example("block", 200, 130, PRIME, 0)
@example("block", 65, 65, 2147483629, 2)
@example("pivot block", 150, 100, 1048583, 1)
@example("pivot block", 65, 65, PRIME, 3)
def test_gf_rank_matches_reference(kind, m, n, p, seed):
    A = _test_matrix(kind, m, n, p, seed)
    assert gf_rank(A, p) == gf_rank_reference(A, p)


@pytest.mark.parametrize("inner, density", [(280, 1.0), (40, 1.0), (300, 0.1)])
def test_gf_rank_matches_reference_across_slices(inner, density):
    # 520 columns: the top-level updates are 260 columns wide, so they run
    # in more than one slice; inner rank 40 keeps the first update to one
    # block with one reduction, rank 280 splits it into reduced blocks
    one, two = _inner_steps(PRIME)
    assert 260 > _SLICE_COLUMNS and 40 <= one and two < 260
    rng = np.random.default_rng(inner)
    A = rng.integers(0, PRIME, size=(520, inner)) @ rng.integers(0, 1000, size=(inner, 520))
    A = A * (rng.random(A.shape) < density)
    assert gf_rank(A, PRIME) == gf_rank_reference(A, PRIME)


def test_kernel_bounds_keep_every_intermediate_exact():
    # worst cases from the kernel's own constants, at the largest prime
    p = PRIME
    h = (p - 1) // 2
    one, two = _inner_steps(p)
    # the split reaches its limb bounds at the extremes of the range
    a = np.array([-h, h, -h + 1, h - 1, _LIMB // 2, -_LIMB // 2, _LIMB // 2 + 1, 0.0])
    hi, lo = _split(a)
    assert np.array_equal(hi * _LIMB + lo, a)
    hi_max, lo_max = (h + _LIMB // 2) // _LIMB, _LIMB // 2
    assert np.abs(hi).max() == hi_max and np.abs(lo).max() == lo_max
    # a product block of s terms on a residue of size h, for every block
    # length the products use: exact in float64, and within reach of the
    # one or two roundings that reduce it
    for s in range(1, two + 1):
        bound = h + s * (hi_max + lo_max) * h
        assert bound <= (1 << 53) - 2 * p
        if s <= one:
            assert bound < 1 << 51
    assert (one, two) == (42, 170)
    # the right operand's multiple before its one rounding
    assert _LIMB * h < 1 << 51
    # a leaf entry after _LEAF_DELAY centered rank-1 updates, plus the
    # offset of centering, and a product of two residues in int64
    assert p + _LEAF_DELAY * h * h + h < 1 << 63
    assert _LEAF_DELAY < _LEAF_COLUMNS
    assert p * p < 1 << 63


@pytest.mark.parametrize("p", [PRIME, 2147483629, 1048583])
def test_center_is_exact_within_its_bounds(p):
    rng = np.random.default_rng(p)
    h = (p - 1) // 2
    for limit, rounds in (((1 << 51) - 1, 1), ((1 << 53) - 2 * p, 2)):
        q = limit // p
        # values next to multiples and half-multiples of p, at the limit
        edges = [q * p + t for t in (0, h, h + 1)] + [limit, (limit // p) * p - h - 1]
        xs = [int(x) for x in rng.integers(-limit, limit, size=2000)]
        xs += edges + [-x for x in edges]
        X = np.array(xs, dtype=np.float64)
        assert [int(x) for x in X] == xs
        for _ in range(rounds):
            _center(X, p)
        assert [int(x) for x in X] == [(x + h) % p - h for x in xs]


def _worst_product_operands(p):
    """A left and a right centered residue whose split product term is
    within a hair of the bound ``_inner_steps`` assumes, and the term."""
    h = (p - 1) // 2
    hi_max = (h + _LIMB // 2) // _LIMB
    a = hi_max * _LIMB - _LIMB // 2
    (hi,), (lo,) = _split(np.array([float(a)]))
    # b with (_LIMB * b mod p) near h * sign(hi) and b near h * sign(lo)
    e = np.arange(1 << 18)
    target = h - e if hi > 0 else -h + e
    b = target * pow(_LIMB, -1, p) % p
    b = np.where(b > h, b - p, b)
    b = int(b[np.argmax(np.abs(hi * target + lo * b))])
    b16 = (_LIMB * b + h) % p - h
    return a, b, int(hi) * b16 + int(lo) * b


@pytest.mark.parametrize("p", [PRIME, 2147483629, 1048583])
def test_sub_product_exact_on_both_sides_of_each_block_limit(p):
    # inner dimensions on both sides of the one- and two-reduction block
    # limits and past one block, with worst-case operands, and C chosen
    # so that the unreduced result sits next to a half-multiple of p,
    # where a rounded quotient is likeliest to be off by one
    h = (p - 1) // 2
    one, two = _inner_steps(p)
    a, b, term = _worst_product_operands(p)
    assert abs(term) > 0.99 * ((h + _LIMB // 2) // _LIMB + _LIMB // 2) * h
    ks = {one - 1, one, one + 1, two - 1, two, two + 1, 2 * two + 1}
    if p != 1048583:
        # at the small prime the limits are 131039 and 524157 terms, too
        # far apart to sweep the inner dimensions between them
        ks |= set(range(one + 1, two, 3))
    targets = [h, h + 1, -h, -h - 1]
    for k in sorted(ks):
        C = np.array([[float((t + k * term + h) % p - h) for t in targets]])
        expect = [(int(c) - k * a * b + h) % p - h for c in C[0]]
        _sub_product(C, np.full((1, k), float(a)), np.full((k, 4), float(b)), p)
        assert [int(x) for x in C[0]] == expect, k
    # p - 1 everywhere, centered -1
    for k in (one, one + 1, two, two + 1):
        C = np.full((2, 2), -1.0)
        _sub_product(C, np.full((2, k), -1.0), np.full((k, 2), -1.0), p)
        assert (C == (-1 - k + h) % p - h).all()


@pytest.mark.parametrize("p", [PRIME, 2147483629])
def test_gf_rank_matches_reference_across_kernel_limits(p):
    # full-rank square matrices, one column all p - 1: on both sides of
    # the leaf's reduction delay and width, and of 2k columns whose
    # top-level update sums k pivots, on both sides of the one- and
    # two-reduction block limits
    one, two = _inner_steps(p)
    rng = np.random.default_rng(5)
    widths = (_LEAF_DELAY, _LEAF_DELAY + 1, _LEAF_COLUMNS, _LEAF_COLUMNS + 1)
    for n in widths + (2 * one, 2 * one + 2, 2 * two, 2 * two + 2):
        A = rng.integers(0, p, size=(n, n))
        A[:, 0] = p - 1
        assert gf_rank(A, p) == gf_rank_reference(A, p) == n


@pytest.mark.parametrize("kind", ["blocks", "rotated"])
def test_gf_rank_with_a_pivot_search_in_every_leaf(kind):
    # "blocks": zero diagonal blocks, as R has where j = k. The matrix is a
    # block upper triangular one with its block rows rotated up by one, so
    # the rows in place at each diagonal block are zero there, and every
    # leaf but those of the last block column searches for its pivots and
    # swaps rows. "rotated": an upper triangular matrix with its rows
    # rotated up by one, so that every column but the last searches.
    rng = np.random.default_rng(8)
    K, b = 8, 40
    U = rng.integers(1, PRIME, size=(K * b, K * b))
    if kind == "blocks":
        for a in range(K):
            U[a * b :, a * b : (a + 1) * b] *= np.arange(a * b, K * b)[:, None] < (a + 1) * b
        U[:b, (K - 1) * b :] = 0
        A = np.roll(U, -b, axis=0)
        assert all(not A[a * b : (a + 1) * b, a * b : (a + 1) * b].any() for a in range(K))
    else:
        A = np.roll(np.triu(U), -1, axis=0)
    assert gf_rank(A, PRIME) == gf_rank_reference(A, PRIME) == K * b
    # two zero columns inside a leaf and a repeated row: rank 317
    A[:, 5 * b + 3 : 5 * b + 5] = 0
    A[7] = A[100]
    assert gf_rank(A, PRIME) == gf_rank_reference(A, PRIME) == K * b - 3


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(["dense", "product", "pivot block"]), min_size=1, max_size=24),
    st.integers(1, 90),
    st.integers(1, 90),
    st.sampled_from([1048583, 2147483629, PRIME]),
    st.integers(0, 2**32 - 1),
)
# the folds of the ladder's group points: blocks of 7 x 7 at (8x8,1)^15,
# 21 x 30 at the K = 12 mix, 30 x 30 at (17x17,2)^16, 38 x 38 at (21x21,2)^20
@example(["dense"] * 15, 7, 7, PRIME, 0)
@example(["dense"] * 6, 21, 30, PRIME, 1)
@example(["dense"] * 16, 30, 30, PRIME, 2)
@example(["dense"] * 20, 38, 38, PRIME, 3)
# full, deficient and pivot blocks together, past the leaf width, and with
# a top-level update longer than a block with one reduction (42 terms)
@example(["dense", "product", "pivot block", "dense"], 90, 88, PRIME, 4)
@example(["pivot block", "dense", "product"], 33, 90, 2147483629, 5)
def test_stack_ranks_match_the_reference_block_by_block(kinds, m, n, p, seed):
    stack = np.stack([_test_matrix(kind, m, n, p, seed + b) % p for b, kind in enumerate(kinds)])
    kept = stack.copy()
    assert _stack_ranks(stack, p) == [gf_rank_reference(block, p) for block in stack]
    assert np.array_equal(stack, kept)


def _counting_stack_ranks(monkeypatch):
    """Record the number of blocks of every stack ranked, recursion included."""
    calls = []
    ranks = iafeas.rank._stack_ranks

    def counting(stack, p):
        calls.append(len(stack))
        return ranks(stack, p)

    monkeypatch.setattr(iafeas.rank, "_stack_ranks", counting)
    return calls


def test_blocks_that_disagree_on_a_pivot_column_are_ranked_alone(monkeypatch):
    # block 1 has no pivot in column 45, in the second leaf, after the
    # products have rewritten the stack's copy; blocks 0 and 2 are full
    rng = np.random.default_rng(4)
    stack = rng.integers(0, PRIME, size=(3, 70, 60))
    stack[1, :, 45] = 0
    calls = _counting_stack_ranks(monkeypatch)
    assert iafeas.rank._stack_ranks(stack, PRIME) == [60, 59, 60]
    assert calls == [3, 1, 1, 1]
    # full blocks agree on every column, wide ones ranked through their
    # transposes, and blocks that find a pivot in different rows: each
    # takes one elimination
    calls.clear()
    assert iafeas.rank._stack_ranks(stack[[0, 2]].transpose(0, 2, 1), PRIME) == [60, 60]
    full = rng.integers(0, PRIME, size=(4, 50, 40))
    for b in range(4):
        full[b, : 2 * b + 1, [0, 35]] = 0
    assert iafeas.rank._stack_ranks(full, PRIME) == [40] * 4
    assert calls == [2, 4]


def test_gf_rank_matches_reference_on_ladder_jacobian():
    cfg = NetworkConfig.symmetric(9, 10, 10, 2)  # C = V = 288
    A = build_jacobian(sample_channels(cfg, seed=4, field=PRIME)).matrix
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
        v = generic_full_row_rank(cfg, mode=mode, seed=1)
        assert not v.full_row_rank, mode
        assert len(v.trial_ranks) == 3
        assert all(r < v.C for r in v.trial_ranks)
    gf = generic_full_row_rank(cfg, mode="gf", seed=1)
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
    projected, R = _project_decorrelators(ch)
    C, _ = system_shape(cfg)
    precoder_cols = sum((cfg.M(j) - cfg.d(j)) * cfg.d(j) for j in range(1, cfg.K + 1))
    assert projected == _g_rank_sum(cfg, ch, p)
    assert R.shape == (C - projected, precoder_cols)
    full = gf_rank_reference(build_jacobian(ch).matrix, p)
    assert projected + gf_rank(R, p) == full


@pytest.mark.parametrize(
    "pairs, seed",
    [
        # N_1 = d_1 (G_1 has no columns), M_2 = d_2 (v_2 has width 0)
        (((6, 2, 2), (2, 6, 2), (6, 6, 2), (5, 5, 1)), 1),
        (((2, 4, 2), (3, 5, 1), (2, 3, 1)), 0),
        (((4, 3, 1), (5, 4, 2), (2, 2, 2), (4, 6, 3)), 2),
        (((5, 5, 2), (3, 3, 1), (4, 4, 2)), 3),
        (((1, 3, 1), (4, 2, 2), (7, 5, 3)), 4),
        (((3, 3, 1), (3, 3, 1), (5, 3, 2), (3, 5, 2)), 5),
    ],
)
def test_reduced_matrix_rows_are_null_combinations_of_precoder_rows(pairs, seed):
    # R's rows for receiver k and stream p are Z_k @ Y_kp: Y_kp holds the
    # precoder columns of rows (k, j, p, q), (j, q) ascending, and the rows
    # of Z_k span the left null space of G_k, read from the decorrelator
    # columns of the same rows
    cfg = NetworkConfig.from_tuples(pairs)
    ch = sample_channels(cfg, seed, field=PRIME)
    A = build_jacobian(ch).matrix
    precoder = [
        col_index(cfg, ("v", j, m, q)) - 1
        for j in range(1, cfg.K + 1)
        for q in range(1, cfg.d(j) + 1)
        for m in range(1, cfg.M(j) - cfg.d(j) + 1)
    ]
    _, R = _project_decorrelators(ch)
    top = 0
    for k in range(1, cfg.K + 1):
        slots = [(j, q) for i, j in cfg.cross_pairs() if i == k for q in range(1, cfg.d(j) + 1)]
        for p in range(1, cfg.d(k) + 1):
            rows = [row_index(cfg, k, j, p, q) - 1 for j, q in slots]
            decorrelator = [
                col_index(cfg, ("u", k, n, p)) - 1 for n in range(1, cfg.N(k) - cfg.d(k) + 1)
            ]
            _, Z = _left_null_basis(A[np.ix_(rows, decorrelator)], PRIME)
            Y = A[np.ix_(rows, precoder)]
            want = Z.astype(object) @ Y.astype(object) % PRIME
            assert np.array_equal(R[top : top + len(Z)] % PRIME, want.astype(np.int64))
            top += len(Z)
    assert top == len(R)


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
        A = build_jacobian(sample_channels(cfg, ts, field=PRIME)).matrix
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
    # random draws only: the first trial is not ranked at a group point
    monkeypatch.setattr(iafeas.rank, "_group_point", lambda cfg, p: None)
    for pairs in [((3, 3, 2),) * 2, ((1, 1, 1), (4, 4, 2), (4, 4, 2)), ((4, 4, 1),) * 4]:
        cfg = NetworkConfig.from_tuples(pairs)
        calls.clear()
        v = generic_full_row_rank(cfg, mode="gf", seed=3)
        assert len(calls) == v.trials
        for shape, ts in zip(calls, v.trial_seeds):
            ch = sample_channels(cfg, ts, field=PRIME)
            assert shape[0] == v.C - _g_rank_sum(cfg, ch, PRIME)


# ---------------------------------------------------------------------------
# the group point: one folded block per character
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cfg, orders",
    [
        # 5 does not divide p - 1: the group takes a prime of its own
        (NetworkConfig.symmetric(20, 21, 21, 2), (2, 2, 5)),
        (NetworkConfig.symmetric(16, 17, 17, 2), (2, 2, 2, 2)),
        (NetworkConfig.symmetric(15, 8, 8, 1), (3, 5)),
        (mixed_rung(12, (1, 2)), (2, 3)),
        (mixed_rung(14, (1, 2, 3)), None),
        (NetworkConfig.symmetric(13, 8, 8, 1), (13,)),
        (NetworkConfig.symmetric(5, 3, 3, 1), (5,)),
        (NetworkConfig.from_tuples([(2, 2, 1), (3, 3, 1), (2, 2, 1)]), None),
    ],
)
def test_group_point_takes_the_largest_usable_group(cfg, orders):
    group = _group_point(cfg, PRIME)
    if orders is None:
        assert group is None
        return
    assert group[0] == orders
    # the characters of every factor live in the group's own field
    assert all((group[2] - 1) % q == 0 for q in orders)
    n = int(np.prod(orders))
    orbits = group[1]
    # consecutive chunks of each type's pairs, ordered by representative
    assert sorted(k for orbit in orbits for k in orbit) == list(range(1, cfg.K + 1))
    assert [orbit[0] for orbit in orbits] == sorted(orbit[0] for orbit in orbits)
    for orbit in orbits:
        assert len(orbit) == n and len({cfg.pairs[k - 1] for k in orbit}) == 1
        same = [k for k in range(1, cfg.K + 1) if cfg.pairs[k - 1] == cfg.pairs[orbit[0] - 1]]
        start = same.index(orbit[0])
        assert list(orbit) == same[start : start + n] and start % n == 0


@pytest.mark.parametrize("p", [PRIME, 1048609, 1048583])
@pytest.mark.parametrize("r", [2, 5, 10, 13, 15, 30])
def test_group_prime_is_the_largest_prime_that_fits(r, p):
    prime = _group_prime(r, p)
    if (p - 1) % r == 0:
        assert prime == p
        return
    if prime != p:
        assert trial_division_is_prime(prime) and prime % r == 1 and 1 << 20 <= prime < p
    # no larger prime = 1 (mod r) at or below p; if none was taken, none in range
    above = range(prime + 1 if prime != p else 1 << 20, p + 1)
    assert not any(trial_division_is_prime(c) for c in above if c % r == 1)


def test_a_group_without_a_prime_in_range_stays_at_p():
    # 1048576 and 1048581 are the only numbers = 1 (mod 5) in [2**20, p],
    # and 1048581 alone = 1 (mod 10); neither is prime
    p = 1048583
    assert _group_prime(5, p) == _group_prime(10, p) == p
    assert _group_point(NetworkConfig.symmetric(5, 3, 3, 1), p) is None
    # 2 divides p - 1, so multiplicity 10 keeps Z_2 at p
    cfg = NetworkConfig.symmetric(10, 6, 6, 1)
    orbits = tuple((k, k + 1) for k in range(1, 11, 2))
    assert _group_point(cfg, p) == ((2,), orbits, p)
    section = generic_full_row_rank(cfg, p=p).to_dict()
    assert section["group"] == {"orders": [2], "orbits": [list(o) for o in orbits]}


@pytest.mark.parametrize(
    "orders, p", [((2,) * 6, PRIME), ((3, 7), PRIME), ((2, 3), 1048583), ((2, 2, 2), PRIME)]
)
def test_fold_matches_the_character_sums(orders, p):
    # (Z_2)^6 has more characters than one reduced block of inner terms
    n = int(np.prod(orders))
    rng = np.random.default_rng(n)
    rows, width = 3, 4
    R = rng.integers(0, 1 << 62, size=(rows, n * width), dtype=np.int64)
    roots = []
    for q in orders:
        a = 2
        while pow(a, (p - 1) // q, p) == 1:
            a += 1
        roots.append(pow(a, (p - 1) // q, p))
    chars = [[1] * n for _ in range(n)]
    for c in range(n):
        for x in range(n):
            cx, xx = c, x
            for q, w in reversed(list(zip(orders, roots))):
                chars[c][x] = chars[c][x] * pow(w, (cx % q) * (xx % q), p) % p
                cx, xx = cx // q, xx // q
    blocks = _fold(R, orders, p)
    assert len(blocks) == n
    for c, block in enumerate(blocks):
        want = [
            [sum(chars[c][x] * int(R[r, x * width + m]) for x in range(n)) % p
             for m in range(width)]
            for r in range(rows)
        ]
        assert np.array_equal(block % p, np.array(want, dtype=np.int64))


@pytest.mark.parametrize(
    "cfg",
    [
        NetworkConfig.symmetric(20, 21, 21, 2),
        NetworkConfig.symmetric(16, 17, 17, 2),
        NetworkConfig.symmetric(15, 8, 8, 1),
        mixed_rung(12, (1, 2)),
    ],
)
def test_a_full_group_point_ranks_its_blocks_in_one_elimination(cfg, monkeypatch):
    # every column of a full block gets a pivot, so the blocks never split
    orders, orbits, prime = _group_point(cfg, PRIME)
    _, R = _project_decorrelators(sample_channels(cfg, 7, field=prime), orbits)
    stack = _fold(R, orders, prime)
    calls = _counting_stack_ranks(monkeypatch)
    ranks = iafeas.rank._stack_ranks(stack, prime)
    assert calls == [len(stack)] == [int(np.prod(orders))]
    assert ranks == [gf_rank_reference(block, prime) for block in stack]
    assert ranks == [min(stack.shape[1:])] * len(stack)


def test_a_group_point_validates_its_prime_once_per_draw(monkeypatch):
    # not once per character: the blocks are ranked without gf_rank
    calls = []
    validate = iafeas.rank.validate_field

    def counting(field):
        calls.append(field)
        return validate(field)

    monkeypatch.setattr(iafeas.rank, "validate_field", counting)
    v = generic_full_row_rank(NetworkConfig.symmetric(20, 21, 21, 2))
    assert v.group[0] == (2, 2, 5) and v.trials == 1
    assert calls == [PRIME]


@st.composite
def _repeated_types(draw):
    """Types repeated 2, 3, 4, 5, 6 or 10 times, in random order.

    At most 8 pairs, or 10 pairs of one type. Antennas are d plus a slack
    of up to K d, so that C <= V is common.
    """
    mult = draw(st.sampled_from([2, 3, 4, 5, 6, 10]))
    kinds = draw(st.integers(1, max(1, 8 // mult)))
    pairs = []
    for _ in range(kinds):
        d = draw(st.integers(1, 2))
        slack = st.integers(0, mult * kinds * d)
        pairs += [(d + draw(slack), d + draw(slack), d)] * mult
    order = draw(st.permutations(range(len(pairs))))
    return NetworkConfig.from_tuples([pairs[i] for i in order])


@settings(max_examples=60, deadline=None)
# 6 divides p - 1 at both primes, and 5 does not, but at both there is a
# prime = 1 (mod 10) of the group's own: every multiplicity drawn gives a group
@given(_repeated_types(), st.integers(0, 2**32 - 1), st.sampled_from([1048609, PRIME]))
@example(NetworkConfig.symmetric(3, 2, 2, 1), 0, PRIME)
@example(NetworkConfig.symmetric(5, 3, 3, 1), 0, PRIME)
@example(NetworkConfig.symmetric(5, 3, 3, 1), 0, 1048609)
@example(NetworkConfig.symmetric(10, 6, 6, 1), 1, PRIME)
@example(NetworkConfig.from_tuples([(6, 5, 1), (8, 8, 1)] * 5), 3, 1048609)
@example(NetworkConfig.symmetric(4, 6, 4, 2), 0, PRIME)
@example(NetworkConfig.symmetric(6, 5, 5, 1), 2, PRIME)
# N = d and M = d: receivers without rows and transmitters without columns
@example(NetworkConfig.from_tuples([(3, 1, 1), (1, 3, 1)] * 2), 1, PRIME)
@example(NetworkConfig.from_tuples([(2, 1, 1), (2, 1, 1), (5, 5, 2), (5, 5, 2)]), 0, PRIME)
def test_folded_rank_equals_the_full_matrix_rank_at_the_group_point(cfg, seed, p):
    C, V = system_shape(cfg)
    assume(0 < C <= V)
    group = _group_point(cfg, p)
    orders, orbits, prime = group
    as_json = {"orders": list(orders), "orbits": [list(o) for o in orbits]}
    if prime != p:
        as_json["prime"] = prime
    point = structured_channels(cfg, seed, as_json, p)
    assert point.field == prime
    full = gf_rank_reference(build_jacobian(point).matrix, prime)
    reps = [orbit[0] for orbit in orbits]
    assert _gf_rank_at(sample_channels(cfg, seed, field=prime, receivers=reps), group) == full

    # a full group point is rebuilt from the rank section's JSON alone, its
    # own prime included
    verdict = generic_full_row_rank(cfg, seed=seed, p=p)
    section = json.loads(json.dumps(verdict.to_dict()))
    if "group" in section:
        assert section["group"] == as_json and section["trial_ranks"] == [C]
        point = structured_channels(cfg, section["trial_seeds"][0], section["group"], p)
        assert gf_rank_reference(build_jacobian(point).matrix, point.field) == C


def _outcome(cfg, seed):
    rep = feasibility_report(cfg, seed=seed)
    return rep.verdict, rep.rule, rep.sound


@settings(max_examples=40, deadline=None)
@given(_repeated_types(), st.integers(0, 2**20), st.randoms(use_true_random=False))
@example(NetworkConfig.symmetric(4, 6, 4, 2), 0, random.Random(0))
def test_group_points_move_no_verdict_rule_or_soundness(cfg, seed, rnd):
    order = list(range(cfg.K))
    rnd.shuffle(order)
    relabelled = NetworkConfig(tuple(cfg.pairs[i] for i in order))
    for network in (cfg, relabelled):
        with_groups = _outcome(network, seed)
        with mock.patch.object(iafeas.rank, "_group_point", lambda cfg, p: None):
            assert _outcome(network, seed) == with_groups


def test_a_witnessed_infeasible_keeps_random_draws():
    # the antenna budget decides; a group point could never expose a defect
    cfg = NetworkConfig.symmetric(3, 4, 8, 3)
    assert system_shape(cfg) == (54, 54)
    assert _group_point(cfg, PRIME) == ((3,), ((1, 2, 3),), PRIME)
    rep = feasibility_report(cfg, seed=0)
    assert rep.witness.kind == "antenna_budget"
    assert rep.rank.trials == 1 and rep.rank.group is None
    assert "group" not in rep.to_dict()["rank"]
    # no group point was tried, so none fell back
    assert "note" not in rep.to_dict()["rank"]
    assert rep.rank == generic_full_row_rank(cfg, seed=0, cross_check=True)


def _random_draw_report(cfg, seed):
    with mock.patch.object(iafeas.rank, "_group_point", lambda cfg, p: None):
        return feasibility_report(cfg, seed=seed).to_dict()


_FALLBACK_NOTE = "the group point is deficient; random draws decide"


def test_a_deficient_group_point_falls_back_to_the_random_draws():
    # passes every counting test, has Z_2 and is deficient at every point
    cfg = NetworkConfig.from_tuples([(2, 1, 1), (2, 1, 1), (5, 5, 2), (5, 5, 2)])
    assert _group_point(cfg, PRIME) is not None
    got = feasibility_report(cfg, seed=0).to_dict()
    assert (got["verdict"], got["rank"]["trial_ranks"]) == ("UNDETERMINED", [24, 24, 24])
    assert got["rank"].pop("note") == _FALLBACK_NOTE
    assert json.dumps(got) == json.dumps(_random_draw_report(cfg, 0))


def counted_draws(monkeypatch):
    """Patch the rank test's draw to list (seed, field, receivers) per call."""
    draws = []
    draw = iafeas.rank.sample_channels

    def counting(cfg, seed, field, receivers=None):
        draws.append((seed, field, receivers))
        return draw(cfg, seed, field=field, receivers=receivers)

    monkeypatch.setattr(iafeas.rank, "sample_channels", counting)
    return draws


def test_the_group_point_draws_only_the_representatives_links(monkeypatch):
    # one orbit of all 20 pairs: the draw holds the 19 links into pair 1
    cfg = NetworkConfig.symmetric(20, 21, 21, 2)
    draws = counted_draws(monkeypatch)
    v = generic_full_row_rank(cfg)
    assert v.group[1] == (tuple(range(1, 21)),) and v.full_row_rank
    [ts] = v.trial_seeds
    assert draws == [(ts, v.group[2], [1])]
    ch = sample_channels(cfg, ts, field=v.group[2], receivers=[1])
    assert list(ch.cross) == [(1, j) for j in range(2, 21)]


def test_a_forced_deficient_group_point_at_p_redraws_every_link(monkeypatch):
    # the group point's draw holds only the representatives' links, so the
    # fallback draws the trial seed again, every link at p, and ranks that
    cfg = NetworkConfig.from_tuples(((6, 4, 2),) * 4)
    orders, orbits, prime = _group_point(cfg, PRIME)
    assert orders == (2, 2) and prime == PRIME
    draws = counted_draws(monkeypatch)
    fold = iafeas.rank._fold
    monkeypatch.setattr(iafeas.rank, "_fold", lambda R, orders, p: fold(R, orders, p) * 0)
    rank = generic_full_row_rank(cfg, seed=0)
    assert rank.note == _FALLBACK_NOTE and rank.group is None
    [ts] = rank.trial_seeds
    assert draws == [(ts, PRIME, [1]), (ts, PRIME, None)]
    assert rank.trial_ranks == (_gf_rank_at(sample_channels(cfg, ts, field=PRIME)),)
    assert rank.full_row_rank


def test_a_deficient_group_point_at_its_own_prime_redraws_at_p(monkeypatch):
    # the group point's draw is over p' and holds only the representatives'
    # links, so the fallback draws the first trial seed again, every link
    # at p: three trials, four draws
    cfg = NetworkConfig.symmetric(5, 4, 4, 1)
    orders, _, prime = _group_point(cfg, PRIME)
    assert orders == (5,) and prime != PRIME
    draws = counted_draws(monkeypatch)
    rank_at = iafeas.rank._gf_rank_at

    def deficient(*args):
        # every point loses one rank, so every trial runs
        return rank_at(*args) - 1

    monkeypatch.setattr(iafeas.rank, "_gf_rank_at", deficient)
    rank = generic_full_row_rank(cfg, seed=0)
    assert rank.note == _FALLBACK_NOTE and rank.trials == 3 and rank.group is None
    first = (rank.trial_seeds[0], prime, [1])
    assert draws == [first] + [(ts, PRIME, None) for ts in rank.trial_seeds]


@pytest.mark.parametrize(
    "pairs", [((2, 2, 1),) * 3, ((6, 4, 2),) * 4, ((8, 8, 2),) * 6, ((4, 4, 1),) * 5]
)
def test_a_forced_deficient_group_point_falls_back_to_a_full_draw(pairs, monkeypatch):
    # no generically full network with a deficient group point is known, so
    # the fold is made to lose one block's rank
    cfg = NetworkConfig.from_tuples(pairs)
    fold = iafeas.rank._fold

    def lossy(R, orders, p):
        blocks = fold(R, orders, p)
        if orders:
            blocks[-1] = blocks[-1] * 0
        return blocks

    monkeypatch.setattr(iafeas.rank, "_fold", lossy)
    got = feasibility_report(cfg, seed=0).to_dict()
    assert got["verdict"] == "FEASIBLE" and got["rank"]["full_row_rank"]
    assert "group" not in got["rank"]
    assert got["rank"].pop("note") == _FALLBACK_NOTE
    assert json.dumps(got) == json.dumps(_random_draw_report(cfg, 0))
