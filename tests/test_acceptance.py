"""Acceptance checks: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. The slower grid criteria carry their stated time budgets as
assertions, so a pathological slowdown fails loudly instead of hanging.
"""

import functools
import json
import time

import numpy as np

from iafeas import (
    NetworkConfig,
    ReducedTransceivers,
    alt_min,
    divisible_feasible,
    feasibility_report,
    flow_feasibility,
    gauss_newton_multistart,
    generic_full_row_rank,
    residual_jacobian,
    run_ptt,
    run_ptt_symmetric,
    sample_channels,
    symmetric_feasible,
    system_shape,
    verify_allocation,
)
from iafeas.cli import main as cli_main

from helpers import (
    enumerate_properness_violation,
    fd_jacobian,
    init_allocation,
    max_allocation,
    random_bundled_run,
    random_config,
    scaling_check,
)


@functools.lru_cache(maxsize=1)
def shared_random_grid():
    """The 200-config random grid shared by criteria 4, 5, and 6."""
    rng = np.random.default_rng(20260819)
    return tuple(random_config(rng) for _ in range(200))


def test_criterion_1_symmetric_closed_form_grid():
    """Exhaustive symmetric grid: rank verdict == sign of M+N-(K+1)d."""
    t0 = time.monotonic()
    checked = 0
    for K in (3, 4, 5):
        for d in (1, 2, 3):
            for M in range(2 * d, 9):
                for N in range(2 * d, 9):
                    cfg = NetworkConfig.symmetric(K, M, N, d)
                    margin = M + N - (K + 1) * d
                    rank = generic_full_row_rank(cfg, mode="gf", seed=0)
                    assert rank.full_row_rank == (margin >= 0), cfg.describe()
                    cf = symmetric_feasible(cfg)
                    assert cf.applicable and cf.margin == margin, cfg.describe()
                    assert cf.feasible == (margin >= 0), cfg.describe()
                    checked += 1
    assert checked == 3 * (49 + 25 + 9)
    assert time.monotonic() - t0 < 300.0


def test_criterion_2_square_boundary_network():
    """(7x8,3)^4: square 108x108 system, full rank, solvable numerically."""
    t0 = time.monotonic()
    cfg = NetworkConfig.symmetric(4, 7, 8, 3)
    assert system_shape(cfg) == (108, 108)
    for mode in ("gf", "numeric"):
        rank = generic_full_row_rank(cfg, mode=mode, seed=0)
        assert rank.full_row_rank, mode
    res = gauss_newton_multistart(sample_channels(cfg, seed=0), starts=5, seed=0)
    assert res.converged and res.residual_norm < 1e-8
    assert time.monotonic() - t0 < 30.0


def test_criterion_3_overloaded_ring_infeasible():
    """(2x2,1)^4: counting witness 8 < 12, stuck transfers, stalled solver."""
    cfg = NetworkConfig.symmetric(4, 2, 2, 1)

    rep = feasibility_report(cfg, seed=0)
    assert rep.verdict == "INFEASIBLE"
    assert rep.rule == "necessary:properness"
    assert (rep.witness.lhs, rep.witness.rhs) == (8, 12)

    for seed in range(10):
        res = run_ptt(cfg, init_allocation(cfg, seed=seed))
        assert not res.balanced
        assert res.witness is not None and res.witness.holds(cfg)

    channels = sample_channels(cfg, seed=0, include_direct=True)
    for seed in range(20):
        res = alt_min(channels, seed=seed)
        assert not res.converged
        assert res.leakage > 1e-6


def test_criterion_4_transfer_flow_enumeration_equivalence():
    """200 random configs: balanced transfers == max flow == counting.

    The three independent methods are the transfer engine from a random
    start, the augmenting-path max-flow oracle of the tests and the
    exhaustive link-subset scan; ``flow_feasibility``, the package's own
    properness decision, rides along as a fourth column.
    """
    for i, cfg in enumerate(shared_random_grid()):
        balanced = run_ptt(cfg, init_allocation(cfg, seed=i)).balanced
        by_oracle = max_allocation(cfg) == len(list(cfg.quads()))
        by_enum = enumerate_properness_violation(cfg) is None
        by_package = flow_feasibility(cfg).balanced
        assert balanced == by_oracle == by_enum == by_package, cfg.describe()


def test_criterion_5_certificates_imply_full_rank():
    """Every certified allocation must come with a full-rank system."""
    certified = 0
    for i, cfg in enumerate(shared_random_grid()):
        runs = [flow_feasibility(cfg), run_ptt(cfg, init_allocation(cfg, seed=i))]
        try:
            runs += [run_ptt_symmetric(cfg), random_bundled_run(cfg, seed=i)]
        except ValueError:
            pass
        allocations = [run.alloc for run in runs if run.balanced]

        for alloc in allocations:
            if verify_allocation(cfg, alloc).certificate:
                certified += 1
                rank = generic_full_row_rank(cfg, seed=0)
                assert rank.full_row_rank, cfg.describe()
    assert certified > 30  # the criterion must not pass vacuously


def test_criterion_6_scaled_copies_stay_full_rank():
    """20 feasible configs scaled by 2 and 3 keep full row rank."""
    feasible = []
    for cfg in shared_random_grid():
        if system_shape(cfg)[0] <= 24 and generic_full_row_rank(cfg, seed=0).full_row_rank:
            feasible.append(cfg)
        if len(feasible) == 20:
            break
    assert len(feasible) == 20
    for cfg in feasible:
        for c in (2, 3):
            rep = scaling_check(cfg, c)
            assert rep.dims_consistent, (cfg.describe(), c)
            assert rep.base.full_row_rank and rep.scaled.full_row_rank
            assert rep.agree


def test_criterion_7_jacobian_matches_finite_differences():
    """Analytic coefficient rows agree with central differences at origin."""
    rng = np.random.default_rng(7)
    for i in range(25):
        cfg = random_config(rng)
        channels = sample_channels(cfg, seed=i)
        origin = ReducedTransceivers.zeros(cfg)
        J = residual_jacobian(channels, origin)
        F = fd_jacobian(cfg, channels, origin)
        rel = np.linalg.norm(F - J) / max(np.linalg.norm(J), 1.0)
        assert rel < 1e-6, cfg.describe()


def test_criterion_8_sweep_soundness(tmp_path, capsys):
    """A 60-config mixed sweep reports zero soundness violations."""
    rng = np.random.default_rng(4242)
    entries = [
        [[2, 2, 1]] * 3,
        [[2, 2, 1]] * 4,
        [[3, 3, 2]] * 2,
        [[1, 1, 1], [4, 4, 2], [4, 4, 2]],
        [[6, 4, 2]] * 3,
        [[2, 4, 2]] * 4,
        [[4, 5, 2]] * 3,
        [[7, 8, 3]] * 4,
    ]
    while len(entries) < 60:
        cfg = random_config(rng)
        entries.append([[cfg.M(k), cfg.N(k), cfg.d(k)] for k in range(1, cfg.K + 1)])
    lst = tmp_path / "sweep.json"
    lst.write_text(json.dumps(entries))

    code = cli_main(["sweep", "--configs", str(lst), "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [json.loads(t) for t in out.splitlines()]
    footer = lines[-1]["footer"]
    assert footer["configs"] == 60
    assert footer["soundness_violations"] == 0
    assert all(line["sound"] for line in lines[:-1])
    assert footer["undetermined"] >= 1  # the gap config stays undetermined


def test_criterion_9_divisible_family_matches_rank():
    """50 random divisible configs: aggregated flow verdict == rank verdict."""
    rng = np.random.default_rng(99)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        K = int(rng.integers(2, 5))
        pairs = []
        for _ in range(K):
            N = d * int(rng.integers(1, 4))
            M = int(rng.integers(d, 10))
            pairs.append((M, N, d))
        cfg = NetworkConfig.from_tuples(pairs)
        cf = divisible_feasible(cfg, flow_feasibility(cfg).witness)
        assert cf.applicable, cfg.describe()
        rank = generic_full_row_rank(cfg, seed=0)
        assert cf.feasible == rank.full_row_rank, cfg.describe()
