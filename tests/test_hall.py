import io

import numpy as np
import pytest

from iafeas import (
    NetworkConfig,
    ReducedTransceivers,
    build_jacobian,
    col_index,
    parse_dump,
    residual_jacobian,
    residuals,
    row_index,
    sample_channels,
    system_shape,
)

from helpers import fd_jacobian, random_config, stacked_residual_oracle

PRIME = (1 << 31) - 1


def test_row_index_oracle():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    assert row_index(cfg, 1, 2, 1, 1) == 1
    assert row_index(cfg, 1, 3, 1, 1) == 2
    assert row_index(cfg, 3, 2, 1, 1) == 6
    with pytest.raises(ValueError):
        row_index(cfg, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        row_index(cfg, 1, 2, 2, 1)


def test_row_index_enumerates_quads():
    rng = np.random.default_rng(0)
    for _ in range(10):
        cfg = random_config(rng)
        rows = [row_index(cfg, *quad) for quad in cfg.quads()]
        assert rows == list(range(1, system_shape(cfg)[0] + 1))


def test_col_index_oracle():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    # three decorrelator columns first, then the precoder columns
    assert col_index(cfg, ("u", 1, 1, 1)) == 1
    assert col_index(cfg, ("v", 1, 1, 1)) == 4
    big = NetworkConfig.symmetric(4, 7, 8, 3)
    assert col_index(big, ("u", 2, 1, 1)) == 16
    with pytest.raises(ValueError):
        col_index(cfg, ("u", 1, 2, 1))  # n beyond N - d
    with pytest.raises(ValueError):
        col_index(cfg, ("w", 1, 1, 1))


def test_col_index_covers_all_variables():
    rng = np.random.default_rng(1)
    for _ in range(10):
        cfg = random_config(rng)
        cols = []
        for k in range(1, cfg.K + 1):
            for p in range(1, cfg.d(k) + 1):
                for n in range(1, cfg.N(k) - cfg.d(k) + 1):
                    cols.append(col_index(cfg, ("u", k, n, p)))
        for j in range(1, cfg.K + 1):
            for q in range(1, cfg.d(j) + 1):
                for m in range(1, cfg.M(j) - cfg.d(j) + 1):
                    cols.append(col_index(cfg, ("v", j, m, q)))
        assert sorted(cols) == list(range(1, system_shape(cfg)[1] + 1))


def test_build_jacobian_sparsity_and_values():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    ch = sample_channels(cfg, seed=3)
    jac = build_jacobian(ch)
    assert (jac.C, jac.V) == (6, 6)
    trips = list(jac.triplets())
    assert len(trips) == 12
    # row 1 is constraint (1,2,1,1): one decorrelator slot from h_12 row 2,
    # one precoder slot from h_12 column 2
    h12 = ch.cross[(1, 2)]
    row1 = {(r, c): v for r, c, v in trips if r == 1}
    assert set(row1) == {(1, 1), (1, 5)}
    assert row1[(1, 1)] == h12[1, 0]
    assert row1[(1, 5)] == h12[0, 1]


def test_nonzeros_per_row():
    rng = np.random.default_rng(7)
    for _ in range(10):
        cfg = random_config(rng)
        ch = sample_channels(cfg, seed=11)
        A = build_jacobian(ch).matrix
        for quad in cfg.quads():
            k, j, p, q = quad
            r = row_index(cfg, *quad) - 1
            expect = (cfg.N(k) - cfg.d(k)) + (cfg.M(j) - cfg.d(j))
            assert np.count_nonzero(A[r]) == expect


def test_residuals_at_origin_are_direct_coefficients():
    cfg = NetworkConfig.from_tuples([(3, 4, 2), (2, 3, 1), (4, 2, 1)])
    ch = sample_channels(cfg, seed=2)
    F = residuals(ch, ReducedTransceivers.zeros(cfg))
    base = 0
    for k, j in cfg.cross_pairs():
        block = ch.cross[(k, j)][: cfg.d(k), : cfg.d(j)].ravel()
        n = block.size
        assert np.allclose(F[base : base + n], block)
        base += n
    assert base == F.size


def test_residuals_match_full_matrix_products():
    rng = np.random.default_rng(12)
    for _ in range(15):
        cfg = random_config(rng)
        ch = sample_channels(cfg, seed=int(rng.integers(1 << 16)))
        tilde = ReducedTransceivers.random(cfg, rng)
        F = residuals(ch, tilde)
        assert np.allclose(F, stacked_residual_oracle(cfg, ch, tilde), atol=1e-12)


def test_residual_jacobian_at_origin_matches_build():
    rng = np.random.default_rng(4)
    for _ in range(8):
        cfg = random_config(rng)
        ch = sample_channels(cfg, seed=int(rng.integers(1 << 16)))
        A = build_jacobian(ch).matrix
        J = residual_jacobian(ch, ReducedTransceivers.zeros(cfg))
        assert np.allclose(A, J)


def test_residual_jacobian_against_finite_differences():
    rng = np.random.default_rng(21)
    cfg = NetworkConfig.from_tuples([(3, 3, 1), (2, 4, 1), (4, 2, 1)])
    ch = sample_channels(cfg, seed=6)
    tilde = ReducedTransceivers.random(cfg, rng, scale=0.7)
    J = residual_jacobian(ch, tilde)
    J_fd = fd_jacobian(cfg, ch, tilde)
    assert np.linalg.norm(J - J_fd) / np.linalg.norm(J) < 1e-8


def test_dump_parse_round_trip_complex():
    cfg = NetworkConfig.symmetric(3, 3, 2, 1)
    ch = sample_channels(cfg, seed=8)
    jac = build_jacobian(ch)
    buf = io.StringIO()
    jac.dump(buf)
    text = buf.getvalue()
    header = text.splitlines()[0].split()
    assert header == [str(jac.C), str(jac.V), "complex"]
    C, V, token, trips = parse_dump(text)
    assert (C, V, token) == (jac.C, jac.V, "complex")
    A = np.zeros((C, V), dtype=complex)
    for r, c, v in trips:
        A[r - 1, c - 1] = v
    assert np.array_equal(A, jac.matrix)  # repr round-trips floats exactly


def test_dump_parse_round_trip_prime():
    cfg = NetworkConfig.symmetric(3, 3, 2, 1)
    ch = sample_channels(cfg, seed=8, field=PRIME)
    jac = build_jacobian(ch)
    buf = io.StringIO()
    jac.dump(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == f"{jac.C} {jac.V} prime:{PRIME}"
    assert all(len(line.split()) == 3 for line in lines[1:])
    C, V, token, trips = parse_dump(buf.getvalue())
    assert (C, V, token) == (jac.C, jac.V, f"prime:{PRIME}")
    A = np.zeros((C, V), dtype=np.int64)
    for r, c, v in trips:
        A[r - 1, c - 1] = v
    assert np.array_equal(A, jac.matrix)


def test_dump_deterministic():
    cfg = NetworkConfig.symmetric(2, 3, 3, 1)
    out = []
    for _ in range(2):
        buf = io.StringIO()
        build_jacobian(sample_channels(cfg, seed=5)).dump(buf)
        out.append(buf.getvalue())
    assert out[0] == out[1]
