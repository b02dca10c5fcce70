"""Property tests over randomly drawn admissible configurations."""

from hypothesis import given, settings, strategies as st

from iafeas import (
    AllocationPolicy,
    NetworkConfig,
    col_index,
    config_from_dict,
    config_to_dict,
    flow_feasibility,
    init_allocation,
    pressures,
    row_index,
    run_ptt,
    run_ptt_symmetric,
    scale_config,
    system_shape,
    verify_allocation,
)

from helpers import max_allocation

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
    alloc, witness = flow_feasibility(cfg)
    if res.balanced:
        assert witness is None and alloc.sides() == res.alloc.sides()
    else:
        assert alloc is None and witness == res.witness


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
    bundled = run_ptt_symmetric(cfg, seed=seed)
    _, witness = flow_feasibility(cfg)
    assert bundled.balanced == (witness is None)
    if not bundled.balanced:
        assert bundled.witness.holds(cfg)
        assert witness.holds(cfg)
