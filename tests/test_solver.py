import numpy as np
import pytest

import iafeas.channels
import iafeas.jacobian
from iafeas import (
    NetworkConfig,
    TransceiverSet,
    alt_min,
    feasibility_report,
    gauss_newton,
    gauss_newton_multistart,
    sample_channels,
    verify_ia,
)

RING = NetworkConfig.symmetric(3, 2, 2, 1)
RING4 = NetworkConfig.symmetric(4, 2, 2, 1)


def test_alt_min_aligns_feasible_ring():
    ch = sample_channels(RING, seed=0, include_direct=True)
    res = alt_min(RING, ch, seed=1)
    assert res.method == "alt_min"
    assert res.converged
    assert res.leakage < 1e-10
    assert res.direct_rank_margin > 0.1
    # leakage never increases across half-steps
    h = res.leakage_history
    assert all(h[i + 1] <= h[i] + 1e-12 for i in range(len(h) - 1))

    # orthonormal eigenvector filters align only up to sqrt(leakage), so
    # the alignment check needs a matching tolerance
    chk = verify_ia(RING, ch, res.transceivers, tol=1e-4)
    assert chk.ok
    assert chk.aligned and chk.rank_ok
    assert chk.max_cross < 1e-4
    assert chk.min_margin == pytest.approx(res.direct_rank_margin)


def test_alt_min_monotone_on_asymmetric_network():
    cfg = NetworkConfig.from_tuples([(3, 2, 1), (2, 4, 1), (4, 3, 1)])
    ch = sample_channels(cfg, seed=5, include_direct=True)
    res = alt_min(cfg, ch, seed=2)
    h = res.leakage_history
    assert len(h) >= 3
    assert all(h[i + 1] <= h[i] + 1e-12 for i in range(len(h) - 1))
    assert res.converged


def test_alt_min_stalls_on_improper_ring():
    ch = sample_channels(RING4, seed=0, include_direct=True)
    for seed in range(5):
        res = alt_min(RING4, ch, seed=seed, max_iters=300)
        assert not res.converged
        assert res.leakage > 1e-6


def test_alt_min_channel_requirements():
    no_direct = sample_channels(RING, seed=0)
    with pytest.raises(ValueError):
        alt_min(RING, no_direct)
    finite = sample_channels(RING, seed=0, field=(1 << 31) - 1, include_direct=True)
    with pytest.raises(ValueError):
        alt_min(RING, finite)
    with pytest.raises(ValueError):
        verify_ia(RING, finite, alt_min(RING, sample_channels(RING, 0, include_direct=True)).transceivers)


def test_gauss_newton_drives_residual_to_zero():
    ch = sample_channels(RING, seed=3)
    res = gauss_newton(RING, ch)
    assert res.method == "gauss_newton"
    assert res.converged
    assert res.residual_norm < 1e-9
    assert res.tilde is not None

    chk = verify_ia(RING, ch, res.transceivers, tol=1e-6)
    assert chk.aligned
    assert chk.rank_ok is None and chk.min_margin is None
    assert chk.ok


def test_gauss_newton_multistart_large_network():
    cfg = NetworkConfig.symmetric(4, 7, 8, 3)
    ch = sample_channels(cfg, seed=0)
    res = gauss_newton_multistart(cfg, ch, starts=5, seed=0)
    assert res.converged
    assert res.residual_norm < 1e-8
    assert verify_ia(cfg, ch, res.transceivers, tol=1e-6).aligned


def test_gauss_newton_stalls_on_improper_ring():
    ch = sample_channels(RING4, seed=2)
    res = gauss_newton_multistart(RING4, ch, starts=3, seed=0)
    assert not res.converged
    assert res.residual_norm > 1e-6


def test_a_gauss_newton_run_checks_its_network_once(monkeypatch):
    # not once per residual and Jacobian evaluation
    calls = []
    validate = iafeas.jacobian.validate_config

    def counting(cfg):
        calls.append(cfg)
        return validate(cfg)

    monkeypatch.setattr(iafeas.jacobian, "validate_config", counting)
    res = gauss_newton(RING4, sample_channels(RING4, seed=2))
    assert res.iterations > 1
    assert calls == [RING4]


@pytest.mark.parametrize("cfg, builds", [(RING4, 2), (NetworkConfig.symmetric(10, 8, 8, 1), 3)])
def test_a_report_stacks_each_link_set_once(monkeypatch, cfg, builds):
    # the stalled ring makes five Gauss-Newton starts on one channel set;
    # (8x8,1)^10 stacks its rank trial's cross links and the solvers' two sets
    calls = []
    stack = iafeas.channels._stack_links

    def counting(cfg, links):
        calls.append(len(links))
        return stack(cfg, links)

    monkeypatch.setattr(iafeas.channels, "_stack_links", counting)
    feasibility_report(cfg, seed=3, mode="numeric", solve=True)
    assert len(calls) == builds


def test_single_pair_needs_no_solving():
    cfg = NetworkConfig.from_tuples([(4, 4, 2)])
    ch = sample_channels(cfg, seed=0, include_direct=True)

    res = alt_min(cfg, ch)
    assert res.converged and res.iterations == 0
    assert res.leakage == 0.0

    gn = gauss_newton(cfg, ch)
    assert gn.converged and gn.iterations == 0
    assert gn.note == "no cross constraints"
    assert verify_ia(cfg, ch, gn.transceivers).ok


def test_verify_ia_flags_misalignment():
    ch = sample_channels(RING, seed=7, include_direct=True)
    rng = np.random.default_rng(0)
    U = []
    V = []
    for k in range(1, RING.K + 1):
        U.append(np.linalg.qr(rng.standard_normal((RING.N(k), RING.d(k))))[0])
        V.append(np.linalg.qr(rng.standard_normal((RING.M(k), RING.d(k))))[0])
    chk = verify_ia(RING, ch, TransceiverSet(U=tuple(U), V=tuple(V)))
    assert not chk.aligned
    assert chk.max_cross > 1e-2
    assert not chk.ok


def test_solver_runs_are_reproducible():
    ch = sample_channels(RING, seed=0, include_direct=True)
    a = alt_min(RING, ch, seed=4)
    b = alt_min(RING, ch, seed=4)
    assert a.leakage_history == b.leakage_history

    ch_nd = sample_channels(RING, seed=1)
    g1 = gauss_newton_multistart(RING, ch_nd, starts=3, seed=9)
    g2 = gauss_newton_multistart(RING, ch_nd, starts=3, seed=9)
    assert g1.leakage_history == g2.leakage_history
    assert g1.residual_norm == g2.residual_norm
