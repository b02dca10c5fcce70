import gc
import inspect
import weakref

import numpy as np
import pytest

import iafeas.channels
import iafeas.jacobian
import iafeas.report
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
    res = alt_min(ch, seed=1)
    assert res.method == "alt_min"
    assert res.converged
    assert res.leakage < 1e-10
    assert res.direct_rank_margin > 0.1
    # leakage never increases across half-steps
    h = res.leakage_history
    assert all(h[i + 1] <= h[i] + 1e-12 for i in range(len(h) - 1))

    # orthonormal eigenvector filters align only up to sqrt(leakage), so
    # the alignment check needs a matching tolerance
    chk = verify_ia(ch, res.transceivers, tol=1e-4)
    assert chk.ok
    assert chk.aligned and chk.rank_ok
    assert chk.max_cross < 1e-4
    assert chk.min_margin == pytest.approx(res.direct_rank_margin)


def test_alt_min_monotone_on_asymmetric_network():
    cfg = NetworkConfig.from_tuples([(3, 2, 1), (2, 4, 1), (4, 3, 1)])
    ch = sample_channels(cfg, seed=5, include_direct=True)
    res = alt_min(ch, seed=2)
    h = res.leakage_history
    assert len(h) >= 3
    assert all(h[i + 1] <= h[i] + 1e-12 for i in range(len(h) - 1))
    assert res.converged


def test_alt_min_stalls_on_improper_ring():
    ch = sample_channels(RING4, seed=0, include_direct=True)
    for seed in range(5):
        res = alt_min(ch, seed=seed, max_iters=300)
        assert not res.converged
        assert res.leakage > 1e-6


def test_alt_min_channel_requirements():
    no_direct = sample_channels(RING, seed=0)
    with pytest.raises(ValueError):
        alt_min(no_direct)
    finite = sample_channels(RING, seed=0, field=(1 << 31) - 1, include_direct=True)
    with pytest.raises(ValueError):
        alt_min(finite)
    with pytest.raises(ValueError):
        verify_ia(finite, alt_min(sample_channels(RING, 0, include_direct=True)).transceivers)


def test_gauss_newton_drives_residual_to_zero():
    ch = sample_channels(RING, seed=3)
    res = gauss_newton(ch)
    assert res.method == "gauss_newton"
    assert res.converged
    assert res.residual_norm < 1e-9
    assert res.tilde is not None

    chk = verify_ia(ch, res.transceivers, tol=1e-6)
    assert chk.aligned
    assert chk.rank_ok is None and chk.min_margin is None
    assert chk.ok


def test_gauss_newton_multistart_large_network():
    cfg = NetworkConfig.symmetric(4, 7, 8, 3)
    ch = sample_channels(cfg, seed=0)
    res = gauss_newton_multistart(ch, starts=5, seed=0)
    assert res.converged
    assert res.residual_norm < 1e-8
    assert verify_ia(ch, res.transceivers, tol=1e-6).aligned


def test_gauss_newton_stalls_on_improper_ring():
    ch = sample_channels(RING4, seed=2)
    res = gauss_newton_multistart(ch, starts=3, seed=0)
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
    res = gauss_newton(sample_channels(RING4, seed=2))
    assert res.iterations > 1
    assert calls == [RING4]


def test_a_channel_set_and_its_system_form_no_cycle():
    # reference counting alone frees a solved channel set
    ch = sample_channels(RING, seed=0)
    gauss_newton(ch)
    ref = weakref.ref(ch)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del ch
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_two_report_seeds_start_alt_min_from_two_points(monkeypatch):
    seeds = []
    run = iafeas.report.alt_min

    def recording(*args, **kwargs):
        bound = inspect.signature(run).bind(*args, **kwargs)
        bound.apply_defaults()
        seeds.append(bound.arguments["seed"])
        return run(*args, **kwargs)

    monkeypatch.setattr(iafeas.report, "alt_min", recording)
    for seed in (1, 2):
        feasibility_report(RING, seed=seed, mode="numeric", solve=True)
    assert seeds == [1, 2]
    # on one channel set, the two seeds start from two precoder sets
    ch = sample_channels(RING, seed=0, include_direct=True)
    one, two = (alt_min(ch, max_iters=0, seed=s).transceivers.V for s in seeds)
    assert not any(np.array_equal(a, b) for a, b in zip(one, two))


@pytest.mark.parametrize("cfg, builds", [(RING4, 1), (NetworkConfig.symmetric(10, 8, 8, 1), 2)])
def test_a_report_builds_one_alignment_system_per_channel_set(monkeypatch, cfg, builds):
    # the stalled ring's five Gauss-Newton starts share one system; (8x8,1)^10
    # builds one for its numeric rank trial and one for the solvers
    calls = []
    build = iafeas.channels.AlignmentSystem

    def counting(channels):
        calls.append(channels.seed)
        return build(channels)

    monkeypatch.setattr(iafeas.channels, "AlignmentSystem", counting)
    feasibility_report(cfg, seed=3, mode="numeric", solve=True)
    assert len(calls) == builds


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

    res = alt_min(ch)
    assert res.converged and res.iterations == 0
    assert res.leakage == 0.0

    gn = gauss_newton(ch)
    assert gn.converged and gn.iterations == 0
    assert gn.note == "no cross constraints"
    assert verify_ia(ch, gn.transceivers).ok


def test_verify_ia_flags_misalignment():
    ch = sample_channels(RING, seed=7, include_direct=True)
    rng = np.random.default_rng(0)
    U = []
    V = []
    for k in range(1, RING.K + 1):
        U.append(np.linalg.qr(rng.standard_normal((RING.N(k), RING.d(k))))[0])
        V.append(np.linalg.qr(rng.standard_normal((RING.M(k), RING.d(k))))[0])
    chk = verify_ia(ch, TransceiverSet(U=tuple(U), V=tuple(V)))
    assert not chk.aligned
    assert chk.max_cross > 1e-2
    assert not chk.ok


def test_solver_runs_are_reproducible():
    ch = sample_channels(RING, seed=0, include_direct=True)
    a = alt_min(ch, seed=4)
    b = alt_min(ch, seed=4)
    assert a.leakage_history == b.leakage_history

    ch_nd = sample_channels(RING, seed=1)
    g1 = gauss_newton_multistart(ch_nd, starts=3, seed=9)
    g2 = gauss_newton_multistart(ch_nd, starts=3, seed=9)
    assert g1.leakage_history == g2.leakage_history
    assert g1.residual_norm == g2.residual_norm
