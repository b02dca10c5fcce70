import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import iafeas.allocation
import iafeas.conditions
import iafeas.report
from iafeas import (
    NetworkConfig,
    check_antenna_budget,
    check_stream_support,
    divisible_feasible,
    feasibility_report,
    flow_feasibility,
    generic_full_row_rank,
    necessary_verdict,
    symmetric_feasible,
    verify_allocation,
)

from helpers import (
    antenna_budget_scan,
    enumerate_properness_violation,
    random_config,
    scaling_check,
)


def test_stream_support():
    assert check_stream_support(NetworkConfig.symmetric(3, 2, 2, 1)) is None
    w = check_stream_support(NetworkConfig.from_tuples([(2, 2, 1), (2, 3, 3)]))
    assert w is not None
    assert w.kind == "stream_support"
    assert (w.pair, w.lhs, w.rhs) == (2, 2, 3)
    assert w.holds(NetworkConfig.from_tuples([(2, 2, 1), (2, 3, 3)]))

    # of two violating pairs, the first is reported
    assert check_stream_support(NetworkConfig.from_tuples([(1, 1, 2), (1, 1, 2)])).pair == 1


def test_antenna_budget_violation():
    # transmitter 3 has 2 antennas; already the single link (1, 3) needs
    # max(M_3, N_1) = 2 to cover d_1 + d_3 = 4 streams
    cfg = NetworkConfig.from_tuples([(6, 2, 2), (6, 2, 2), (2, 6, 2)])
    assert check_stream_support(cfg) is None
    w = check_antenna_budget(cfg)
    assert w is not None
    assert w.kind == "antenna_budget"
    assert w.tx_set == frozenset({3})
    assert w.rx_set == frozenset({1})
    assert (w.lhs, w.rhs) == (2, 4)
    assert w.holds(cfg)
    assert w.links == frozenset({(1, 3)})


def test_antenna_budget_passes_balanced():
    assert check_antenna_budget(NetworkConfig.symmetric(4, 5, 5, 2)) is None


# K = 13: two (3x3,2) pairs break the budget on link (2,1) alone, and
# eleven roomy pairs hide nothing of it
BUDGET_REPRODUCER = [(3, 3, 2)] * 2 + [(30, 30, 1)] * 11


def test_antenna_budget_runs_above_twelve_pairs():
    cfg = NetworkConfig.from_tuples(BUDGET_REPRODUCER)
    w = check_antenna_budget(cfg)
    assert w.tx_set == frozenset({1})
    assert w.rx_set == frozenset({2})
    assert (w.lhs, w.rhs) == (3, 4)
    assert w.links == frozenset({(2, 1)})
    assert w.holds(cfg)


budget_pairs = st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(st.lists(budget_pairs, min_size=2, max_size=8))
@example(BUDGET_REPRODUCER[:12])
def test_antenna_budget_matches_scan_oracle(pairs):
    # the same first witness (sets, sides, links), or None from both
    cfg = NetworkConfig.from_tuples(pairs)
    assert check_antenna_budget(cfg) == antenna_budget_scan(cfg)


def _brute_force_budget(cfg):
    """Scan every nonempty link subset directly (tiny K only)."""
    links = list(cfg.cross_pairs())
    for r in range(1, len(links) + 1):
        for sub in itertools.combinations(links, r):
            rx = {k for k, _ in sub}
            tx = {j for _, j in sub}
            lhs = max(
                sum(cfg.M(j) for j in tx), sum(cfg.N(k) for k in rx)
            )
            rhs = sum(cfg.d(i) for i in rx | tx)
            if lhs < rhs:
                return True
    return False


def test_antenna_budget_matches_brute_force():
    rng = np.random.default_rng(31)
    checked_violations = 0
    for _ in range(40):
        K = int(rng.integers(2, 4))
        pairs = [
            (int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 4)))
            for _ in range(K)
        ]
        cfg = NetworkConfig.from_tuples(pairs)
        expect = _brute_force_budget(cfg)
        got = check_antenna_budget(cfg)
        assert (got is not None) == expect, cfg.describe()
        if got is not None:
            assert got.holds(cfg)
            checked_violations += 1
    assert checked_violations > 0


def test_properness_flow_and_enumeration_agree():
    rng = np.random.default_rng(5)
    for _ in range(40):
        cfg = random_config(rng)
        enum = enumerate_properness_violation(cfg)
        flow = flow_feasibility(cfg).witness
        assert (enum is None) == (flow is None), cfg.describe()
        if enum is not None:
            assert enum.holds(cfg)
            assert flow.holds(cfg)
            assert flow.kind == "properness"


def test_enumeration_caps_network_size():
    with pytest.raises(ValueError):
        enumerate_properness_violation(NetworkConfig.symmetric(5, 2, 2, 1))


def test_properness_witness_serializes():
    res = flow_feasibility(NetworkConfig.symmetric(4, 2, 2, 1))
    assert not res.balanced
    d = res.witness.to_dict()
    assert d["kind"] == "properness"
    assert d["lhs"] < d["rhs"]
    assert d["links"]


def test_necessary_verdict_order_and_skips():
    rep = necessary_verdict(NetworkConfig.symmetric(3, 2, 2, 1))
    assert rep.passed and rep.witness is None
    assert rep.checks == ("stream_support", "antenna_budget", "properness")
    # the properness run rides along but stays out of the JSON
    assert rep.run == flow_feasibility(NetworkConfig.symmetric(3, 2, 2, 1))
    assert "run" not in rep.to_dict()

    # stream violation wins and the properness check is skipped
    rep = necessary_verdict(NetworkConfig.from_tuples([(1, 1, 2), (3, 3, 1)]))
    assert not rep.passed
    assert rep.witness.kind == "stream_support"
    assert "properness" in rep.skipped

    rep = necessary_verdict(NetworkConfig.symmetric(4, 2, 2, 1))
    assert not rep.passed
    assert rep.witness.kind == "properness"


def test_necessary_verdict_stops_at_first_violation():
    # budget and properness both fail; the chain reports the budget witness
    cfg = NetworkConfig.from_tuples([(6, 2, 2), (6, 2, 2), (2, 6, 2), (2, 2, 2)])
    assert flow_feasibility(cfg).witness is not None
    rep = necessary_verdict(cfg)
    assert not rep.passed
    assert rep.witness == check_antenna_budget(cfg)
    assert rep.checks == ("stream_support", "antenna_budget")
    assert rep.skipped == ("properness",)
    assert rep.run is None


@pytest.mark.parametrize(
    "K,M,N,d,feasible",
    [
        (3, 2, 2, 1, True),   # margin 0
        (4, 2, 2, 1, False),  # margin -1
        (3, 5, 5, 2, True),   # margin 2
        (5, 3, 2, 1, False),  # margin -1
        (5, 3, 3, 1, True),   # margin 0
    ],
)
def test_symmetric_closed_form(K, M, N, d, feasible):
    cf = symmetric_feasible(NetworkConfig.symmetric(K, M, N, d))
    assert cf.applicable
    assert cf.feasible is feasible
    assert cf.margin == M + N - (K + 1) * d
    if not feasible:
        assert cf.witness is not None
        assert cf.witness.holds(NetworkConfig.symmetric(K, M, N, d))


def test_symmetric_closed_form_guards():
    # mixed pairs fall outside the family
    assert not symmetric_feasible(
        NetworkConfig.from_tuples([(2, 2, 1), (3, 3, 1)])
    ).applicable
    # min(M, N) < 2d falls outside too; the formula would wrongly claim
    # feasibility for (3x3,2)^2, which is proper yet infeasible
    cf = symmetric_feasible(NetworkConfig.symmetric(2, 3, 3, 2))
    assert not cf.applicable
    assert "2d" in cf.reason


def test_divisible_closed_form():
    cfg = NetworkConfig.symmetric(3, 6, 4, 2)
    cf = divisible_feasible(cfg, flow_feasibility(cfg).witness)
    assert cf.applicable and cf.feasible

    cfg = NetworkConfig.symmetric(4, 2, 4, 2)
    cf = divisible_feasible(cfg, flow_feasibility(cfg).witness)
    assert cf.applicable and cf.feasible is False
    assert cf.witness is not None
    assert cf.witness.holds(NetworkConfig.symmetric(4, 2, 4, 2))

    # d = 1 always qualifies
    cfg = NetworkConfig.from_tuples([(2, 3, 1), (3, 2, 1)])
    assert divisible_feasible(cfg, flow_feasibility(cfg).witness).applicable

    # 2 divides neither 3 nor 3: outside the family (and properness alone
    # would wrongly pass the proper-but-infeasible (3x3,2)^2)
    cfg = NetworkConfig.symmetric(2, 3, 3, 2)
    cf = divisible_feasible(cfg, flow_feasibility(cfg).witness)
    assert not cf.applicable

    cfg = NetworkConfig.from_tuples([(4, 4, 2), (3, 3, 1)])
    assert not divisible_feasible(cfg, flow_feasibility(cfg).witness).applicable


def test_divisible_closed_form_matches_rank_spot_checks():
    for pairs in [
        [(6, 4, 2)] * 3,
        [(4, 4, 2), (4, 8, 2), (6, 4, 2)],
        [(2, 4, 2)] * 3,
        [(3, 2, 1), (2, 2, 1), (2, 3, 1)],
    ]:
        cfg = NetworkConfig.from_tuples(pairs)
        cf = divisible_feasible(cfg, flow_feasibility(cfg).witness)
        assert cf.applicable
        rank = generic_full_row_rank(cfg, seed=3)
        assert cf.feasible == rank.full_row_rank, cfg.describe()


@pytest.mark.parametrize(
    "pairs",
    [
        [(6, 4, 2)] * 4,
        [(4, 4, 2), (4, 8, 2), (6, 4, 2)],
        [(3, 2, 1), (2, 4, 1), (2, 2, 1)],
    ],
)
def test_report_runs_the_transfer_engine_once(pairs, monkeypatch):
    # the divisible family is decided by the chain's properness run; only
    # where its allocation is no certificate, as on (6x4,2)^4, does the
    # bundled run follow for the allocation section
    runs = []
    engine = iafeas.allocation._run_transfer_engine

    def counted(*args):
        runs.append(args)
        return engine(*args)

    monkeypatch.setattr(iafeas.allocation, "_run_transfer_engine", counted)
    rep = feasibility_report(NetworkConfig.from_tuples(pairs), seed=0)
    assert rep.necessary.passed
    assert rep.closed_forms[1].applicable and rep.closed_forms[1].feasible
    plain_certifies = verify_allocation(rep.cfg, rep.necessary.run.alloc).certificate
    assert plain_certifies == (pairs != [(6, 4, 2)] * 4)
    assert rep.allocation_report.certificate
    assert len(runs) == (1 if plain_certifies else 2)


def test_report_finds_the_bundle_axis_once_per_layer(monkeypatch):
    # the closed form and the bundled retry each find it; the retry runs
    # the engine on the axis it found, not through run_ptt_symmetric
    calls = []
    axis = iafeas.conditions.bundle_axis

    def counted(cfg):
        calls.append(cfg)
        return axis(cfg)

    monkeypatch.setattr(iafeas.conditions, "bundle_axis", counted)
    monkeypatch.setattr(iafeas.allocation, "bundle_axis", counted)
    rep = feasibility_report(NetworkConfig.symmetric(4, 6, 4, 2), seed=0)
    assert rep.allocation_report.certificate
    assert len(calls) == 2


def test_solver_section_reads_stream_support_off_the_chain(monkeypatch):
    calls = []
    check = iafeas.report.check_stream_support

    def counted(cfg):
        calls.append(cfg)
        return check(cfg)

    monkeypatch.setattr(iafeas.report, "check_stream_support", counted)
    rep = feasibility_report(NetworkConfig.symmetric(3, 3, 3, 1), solve=True)
    assert "alt_min" in rep.solver
    assert len(calls) == 1

    rep = feasibility_report(NetworkConfig.from_tuples([(1, 3, 2), (4, 4, 1)]), solve=True)
    assert "skipped" in rep.solver


def test_properness_needs_stream_support():
    # N_1 - d_1 = -1: no allocation meets a negative cap
    cfg = NetworkConfig.from_tuples([(3, 1, 2), (3, 3, 1), (3, 3, 1)])
    with pytest.raises(ValueError, match="admissible"):
        flow_feasibility(cfg)


def test_scaling_check():
    rep = scaling_check(NetworkConfig.symmetric(3, 2, 2, 1), 2)
    assert rep.dims_consistent
    assert rep.base.full_row_rank and rep.scaled.full_row_rank
    assert rep.agree

    rep = scaling_check(NetworkConfig.symmetric(4, 2, 2, 1), 3)
    assert rep.dims_consistent
    assert not rep.base.full_row_rank and not rep.scaled.full_row_rank
    assert rep.agree
