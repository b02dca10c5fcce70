"""Property tests over randomly drawn admissible configurations."""

import dataclasses

from hypothesis import example, given, settings, strategies as st

from iafeas import (
    AllocationPolicy,
    NetworkConfig,
    check_antenna_budget,
    col_index,
    config_from_dict,
    config_to_dict,
    feasibility_report,
    flow_feasibility,
    generic_full_row_rank,
    necessary_verdict,
    pressures,
    row_index,
    run_ptt,
    run_ptt_symmetric,
    scale_config,
    system_shape,
    verify_allocation,
)

from iafeas.rank import DEFAULT_PRIME

from helpers import init_allocation, max_allocation, random_bundled_run

pairs = st.tuples(
    st.integers(1, 8), st.integers(1, 8), st.integers(1, 3)
).filter(lambda t: t[2] <= min(t[0], t[1]))

networks = st.lists(pairs, min_size=1, max_size=4).map(NetworkConfig.from_tuples)
wide_networks = st.lists(pairs, min_size=1, max_size=6).map(NetworkConfig.from_tuples)


@settings(max_examples=60, deadline=None)
@given(networks)
def test_config_json_round_trip(cfg):
    back, seed, field = config_from_dict(config_to_dict(cfg))
    assert back == cfg
    assert seed is None and field == "complex"


@settings(max_examples=60, deadline=None)
@given(networks, st.integers(0, 2**20))
def test_total_pressure_is_allocation_independent(cfg, seed):
    caps = sum(
        cfg.d(k) * (cfg.N(k) - cfg.d(k)) + cfg.d(k) * (cfg.M(k) - cfg.d(k))
        for k in range(1, cfg.K + 1)
    )
    constraints = len(list(cfg.quads()))
    state = pressures(cfg, init_allocation(cfg, seed=seed))
    assert state.total() == caps - constraints


@settings(max_examples=60, deadline=None)
@given(networks, st.integers(1, 3))
def test_scaling_multiplies_both_dimensions_by_c_squared(cfg, c):
    C, V = system_shape(cfg)
    assert system_shape(scale_config(cfg, c)) == (c * c * C, c * c * V)


@settings(max_examples=60, deadline=None)
@given(networks)
def test_row_and_column_indexing_are_bijections(cfg):
    C, V = system_shape(cfg)
    rows = sorted(row_index(cfg, *quad) for quad in cfg.quads())
    assert rows == list(range(1, C + 1))

    cols = []
    for k in range(1, cfg.K + 1):
        # variables are matrix entries: (kind, pair, antenna component, stream)
        for comp in range(1, cfg.N(k) - cfg.d(k) + 1):
            for p in range(1, cfg.d(k) + 1):
                cols.append(col_index(cfg, ("u", k, comp, p)))
        for comp in range(1, cfg.M(k) - cfg.d(k) + 1):
            for q in range(1, cfg.d(k) + 1):
                cols.append(col_index(cfg, ("v", k, comp, q)))
    assert sorted(cols) == list(range(1, V + 1))


@settings(max_examples=80, deadline=None)
@given(wide_networks)
def test_all_receive_transfer_run_matches_max_flow_oracle(cfg):
    res = run_ptt(cfg, AllocationPolicy.all_rx(cfg))
    assert res.balanced == (max_allocation(cfg) == len(list(cfg.quads())))
    if res.balanced:
        assert verify_allocation(cfg, res.alloc).capacities_ok
    else:
        assert res.witness.holds(cfg)

    # the properness decision is this very run
    flow = flow_feasibility(cfg)
    assert flow.balanced == res.balanced
    if res.balanced:
        assert flow.witness is None and flow.alloc.sides == res.alloc.sides
    else:
        assert flow.witness == res.witness


@st.composite
def divisible_networks(draw):
    """Equal-stream networks where d divides every N_k or every M_k."""
    d = draw(st.integers(1, 3))
    over_n = draw(st.booleans())
    out = []
    for _ in range(draw(st.integers(1, 6))):
        split = d * draw(st.integers(1, 4))
        other = draw(st.integers(d, 9))
        out.append((other, split, d) if over_n else (split, other, d))
    return NetworkConfig.from_tuples(out)


@settings(max_examples=150, deadline=None)
@given(divisible_networks(), st.integers(0, 1 << 16))
def test_bundled_run_agrees_with_plain_properness_run(cfg, seed):
    # on these networks properness is sufficient, so the bundled run from
    # any start balances exactly when the plain properness run does
    witness = flow_feasibility(cfg).witness
    for bundled in (run_ptt_symmetric(cfg), random_bundled_run(cfg, seed=seed)):
        assert bundled.balanced == (witness is None)
        if not bundled.balanced:
            assert bundled.witness.holds(cfg)
            assert witness.holds(cfg)


@st.composite
def relabelled_networks(draw):
    """A network of up to 8 pairs and a relabelling of its pairs.

    Pair i + 1 of the relabelled network is pair ``perm[i] + 1`` of the
    original.
    """
    triples = draw(st.lists(pairs, min_size=2, max_size=8))
    perm = draw(st.permutations(range(len(triples))))
    cfg = NetworkConfig.from_tuples(triples)
    relabelled = NetworkConfig.from_tuples([triples[i] for i in perm])
    return cfg, relabelled, perm


def _verdict_shape(cfg):
    rep = necessary_verdict(cfg)
    return rep.passed, None if rep.witness is None else rep.witness.kind


@settings(max_examples=100, deadline=None)
@given(relabelled_networks())
def test_necessary_verdict_is_invariant_under_relabelling(networks):
    cfg, relabelled, perm = networks
    assert _verdict_shape(relabelled) == _verdict_shape(cfg)

    # a budget witness names pairs; mapped back, it holds on the original
    w = check_antenna_budget(relabelled)
    assert (w is None) == (check_antenna_budget(cfg) is None)
    if w is not None:
        def back(i):
            return perm[i - 1] + 1

        mapped = dataclasses.replace(
            w,
            tx_set=frozenset(map(back, w.tx_set)),
            rx_set=frozenset(map(back, w.rx_set)),
            links=frozenset((back(k), back(j)) for k, j in w.links),
        )
        assert mapped.holds(cfg)


@settings(max_examples=100, deadline=None)
@given(st.lists(pairs, min_size=1, max_size=8))
def test_necessary_verdict_is_invariant_under_reciprocity(triples):
    # the reciprocal network swaps every pair's transmit and receive
    # antennas and has the same feasibility (Gomadam, Cadambe and Jafar)
    cfg = NetworkConfig.from_tuples(triples)
    reciprocal = NetworkConfig.from_tuples([(n, m, d) for m, n, d in triples])
    assert _verdict_shape(reciprocal) == _verdict_shape(cfg)


@settings(max_examples=150, deadline=None)
@given(wide_networks, st.sampled_from([2, 3]))
# the strategy's networks never fail stream support and rarely properness
@example(NetworkConfig.from_tuples([(3, 1, 2), (2, 2, 1)]), 2)
@example(NetworkConfig.symmetric(4, 2, 2, 1), 3)
def test_necessary_verdict_is_invariant_under_scaling(cfg, c):
    # stream support and the antenna budget inequalities scale by c, and
    # properness by c**2, so the c-fold network passes and fails alike
    assert _verdict_shape(scale_config(cfg, c)) == _verdict_shape(cfg)


@settings(max_examples=60, deadline=None)
# two or more pairs, so that witnesses with C <= V come up often
@given(st.lists(pairs, min_size=2, max_size=5).map(NetworkConfig.from_tuples),
       st.integers(0, 2**20))
@example(NetworkConfig.from_tuples([(3, 3, 2), (3, 3, 2), (5, 5, 1)]), 0)
def test_a_witnessed_infeasible_takes_one_rank_draw(cfg, seed):
    rep = feasibility_report(cfg, seed=seed)
    C, V = system_shape(cfg)
    if rep.witness is not None and C <= V:
        # the rank test only cross-checks the witness, with one draw
        assert rep.sound
        assert rep.rank.trials == 1
        assert rep.rank.error_bound == C / DEFAULT_PRIME
        assert rep.rank == generic_full_row_rank(cfg, seed=seed, cross_check=True)
    else:
        assert rep.rank == generic_full_row_rank(
            cfg, seed=seed, cross_check=rep.witness is not None
        )
