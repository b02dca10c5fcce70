import json
from pathlib import Path

import numpy as np
import pytest

from iafeas import (
    AllocationPolicy,
    NetworkConfig,
    allocation_from_json_dict,
    config_from_dict,
    flow_feasibility,
    init_allocation,
    pressures,
    run_ptt,
    run_ptt_symmetric,
    verify_allocation,
)

from helpers import enumerate_properness_violation, max_allocation, random_config

DATA = Path(__file__).parent / "data"

RING = NetworkConfig.symmetric(3, 2, 2, 1)
RING4 = NetworkConfig.symmetric(4, 2, 2, 1)


def total_deficit(cfg, alloc):
    state = pressures(cfg, alloc)
    return sum(-v for v in list(state.p_r.values()) + list(state.p_t.values()) if v < 0)


def test_policy_from_sides_and_accessors():
    alloc = AllocationPolicy.all_rx(RING)
    assert set(alloc.c_r.values()) == {1}
    assert set(alloc.c_t.values()) == {0}
    for quad in RING.quads():
        assert alloc.side(quad) == "r"
    assert alloc.sides() == {quad: "r" for quad in RING.quads()}


def test_policy_rejects_bad_sides():
    sides = {quad: "r" for quad in RING.quads()}
    missing = dict(sides)
    del missing[(1, 2, 1, 1)]
    with pytest.raises(ValueError, match="no side"):
        AllocationPolicy.from_sides(RING, missing)

    extra = dict(sides)
    extra[(9, 1, 1, 1)] = "t"
    with pytest.raises(ValueError, match="unknown"):
        AllocationPolicy.from_sides(RING, extra)

    # a policy that double-books a constraint is representable but unusable
    broken = AllocationPolicy(
        cfg=RING,
        c_t={quad: 1 for quad in RING.quads()},
        c_r={quad: 1 for quad in RING.quads()},
    )
    with pytest.raises(ValueError, match="exactly one side"):
        broken.side((1, 2, 1, 1))
    with pytest.raises(ValueError, match="exactly one side"):
        run_ptt(RING, broken)


def test_json_dict_round_trip():
    cfg = NetworkConfig.from_tuples([(2, 2, 1), (2, 2, 1), (4, 2, 2)])
    alloc = init_allocation(cfg, seed=11)
    obj = alloc.to_json_dict()
    # keys come out in constraint order
    assert list(obj) == [",".join(str(i) for i in quad) for quad in cfg.quads()]
    back = allocation_from_json_dict(cfg, json.loads(json.dumps(obj)))
    assert back.sides() == alloc.sides()


def test_allocation_json_rejects_malformed():
    good = AllocationPolicy.all_rx(RING).to_json_dict()

    with pytest.raises(ValueError, match="JSON object"):
        allocation_from_json_dict(RING, ["1,2,1,1"])

    bad_key = dict(good)
    bad_key["1,2,1"] = bad_key.pop("1,2,1,1")
    with pytest.raises(ValueError, match="k,j,p,q"):
        allocation_from_json_dict(RING, bad_key)

    bad_int = dict(good)
    bad_int["1,2,1,x"] = bad_int.pop("1,2,1,1")
    with pytest.raises(ValueError, match="non-integer"):
        allocation_from_json_dict(RING, bad_int)

    bad_side = dict(good)
    bad_side["1,2,1,1"] = "rx"
    with pytest.raises(ValueError, match="'r' or 't'"):
        allocation_from_json_dict(RING, bad_side)

    short = dict(good)
    del short["1,2,1,1"]
    with pytest.raises(ValueError, match="missing"):
        allocation_from_json_dict(RING, short)

    long = dict(good)
    long["3,1,1,2"] = "t"
    with pytest.raises(ValueError, match="extra"):
        allocation_from_json_dict(RING, long)


def test_fixture_mixed_pair_allocation():
    """Hand-built allocation for {(2x2,1)^2, (4x2,2)}: uniform over q but
    overloading both receive streams of pair 3, whose capacity is zero."""
    blob = json.loads((DATA / "mixed_pair_allocation.json").read_text())
    cfg, _, _ = config_from_dict(blob["config"])
    alloc = allocation_from_json_dict(cfg, blob["allocation"])

    report = verify_allocation(cfg, alloc)
    assert report.complementary
    assert report.tx_capacity_ok
    assert not report.rx_capacity_ok
    assert report.rx_overloads == ((3, 1, 1, 0), (3, 2, 1, 0))
    assert report.tx_overloads == ()
    assert report.uniform_over_q
    assert not report.uniform_over_p
    assert report.stream_uniform
    assert not report.capacities_ok
    assert not report.certificate

    dumped = report.to_dict()
    json.dumps(dumped)
    assert dumped["certificate"] is False
    assert dumped["rx_overloads"] == [[3, 1, 1, 0], [3, 2, 1, 0]]


def test_pressures_all_receive_ring():
    state = pressures(RING, AllocationPolicy.all_rx(RING))
    assert state.p_r == {(k, 1): -1 for k in (1, 2, 3)}
    assert state.p_t == {(k, 1): 1 for k in (1, 2, 3)}
    assert state.total() == 0
    assert state.lowest() == -1
    assert not state.all_nonnegative()
    blob = state.to_dict()
    json.dumps(blob)
    assert blob["r"]["1,1"] == -1


def test_pressure_total_is_invariant():
    # moving constraints between sides never changes the total slack
    rng = np.random.default_rng(7)
    for _ in range(25):
        cfg = random_config(rng)
        caps = sum(
            cfg.d(k) * (cfg.N(k) - cfg.d(k)) + cfg.d(k) * (cfg.M(k) - cfg.d(k))
            for k in range(1, cfg.K + 1)
        )
        expected = caps - len(list(cfg.quads()))
        for seed in (0, 1):
            alloc = init_allocation(cfg, seed=seed)
            assert pressures(cfg, alloc).total() == expected


def test_run_ptt_balances_ring():
    start = AllocationPolicy.all_rx(RING)
    res = run_ptt(RING, start)
    assert res.balanced
    assert res.tree is None and res.witness is None
    # one transfer per unit of starting deficit
    assert res.transfers == 3
    state = pressures(RING, res.alloc)
    assert state.all_nonnegative()
    assert state.lowest() == 0
    assert verify_allocation(RING, res.alloc).certificate
    # the input policy is untouched
    assert start.sides() == {quad: "r" for quad in RING.quads()}


def test_run_ptt_stuck_tree_and_witness():
    res = run_ptt(RING4, AllocationPolicy.all_rx(RING4))
    assert not res.balanced
    tree = res.tree
    assert tree is not None
    assert tree.pressures[tree.root] < 0
    assert all(v <= 0 for v in tree.pressures.values())
    assert sum(tree.pressures.values()) < 0

    # closure: constraints assigned to a tree cell stay inside the node set
    nodes = set(tree.nodes)
    for quad in RING4.quads():
        k, j, p, q = quad
        r_cell, t_cell = ("r", k, p), ("t", j, q)
        held = r_cell if res.alloc.side(quad) == "r" else t_cell
        if held in nodes:
            assert r_cell in nodes and t_cell in nodes

    assert res.witness is not None
    assert res.witness.kind == "properness"
    assert res.witness.holds(RING4)
    json.dumps(tree.to_dict())


def test_run_ptt_agrees_with_flow_and_enumeration():
    rng = np.random.default_rng(1234)
    for i in range(100):
        cfg = random_config(rng)
        start = init_allocation(cfg, seed=i)
        deficit = total_deficit(cfg, start)
        res = run_ptt(cfg, start)

        assert res.balanced == (max_allocation(cfg) == len(list(cfg.quads())))
        assert res.balanced == (enumerate_properness_violation(cfg) is None)
        alloc_flow, wit_flow = flow_feasibility(cfg)
        assert res.balanced == (alloc_flow is not None)

        if res.balanced:
            assert res.transfers == deficit
            assert pressures(cfg, res.alloc).all_nonnegative()
            rep = verify_allocation(cfg, res.alloc)
            assert rep.complementary and rep.capacities_ok
            flow_rep = verify_allocation(cfg, alloc_flow)
            assert flow_rep.complementary and flow_rep.capacities_ok
        else:
            assert res.witness.holds(cfg)
            assert wit_flow is not None and wit_flow.holds(cfg)


def test_run_ptt_symmetric_bundles_over_q():
    cfg = NetworkConfig.symmetric(3, 6, 4, 2)
    res = run_ptt_symmetric(cfg, seed=0)
    assert res.balanced
    rep = verify_allocation(cfg, res.alloc)
    assert rep.certificate
    assert rep.uniform_over_q


def test_run_ptt_symmetric_bundles_over_p():
    # d divides the transmit antennas only, so the mirrored variant runs
    cfg = NetworkConfig.symmetric(3, 4, 5, 2)
    res = run_ptt_symmetric(cfg, seed=0)
    assert res.balanced
    rep = verify_allocation(cfg, res.alloc)
    assert rep.certificate
    assert rep.uniform_over_p


def test_run_ptt_symmetric_stuck_has_stream_level_witness():
    cfg = NetworkConfig.symmetric(4, 2, 4, 2)
    res = run_ptt_symmetric(cfg, seed=0)
    assert not res.balanced
    assert res.witness is not None
    assert res.witness.holds(cfg)


def test_run_ptt_symmetric_guards():
    with pytest.raises(ValueError, match="divide"):
        run_ptt_symmetric(NetworkConfig.symmetric(3, 5, 5, 2))
    with pytest.raises(ValueError, match="common stream count"):
        run_ptt_symmetric(NetworkConfig.from_tuples([(4, 4, 2), (4, 4, 1), (4, 4, 1)]))
    with pytest.raises(ValueError, match="admissible"):
        run_ptt_symmetric(NetworkConfig.symmetric(3, 2, 3, 3))


def test_run_ptt_symmetric_single_stream_matches_plain():
    for cfg in (RING, RING4, NetworkConfig.from_tuples([(3, 2, 1), (2, 4, 1), (2, 2, 1)])):
        for seed in range(5):
            bundled = run_ptt_symmetric(cfg, seed=seed)
            plain = run_ptt(cfg, init_allocation(cfg, seed=seed))
            assert bundled.balanced == plain.balanced
            assert bundled.transfers == plain.transfers
            assert bundled.alloc.sides() == plain.alloc.sides()


def test_flow_feasibility_witness_numbers():
    alloc, wit = flow_feasibility(RING)
    assert wit is None
    assert verify_allocation(RING, alloc).capacities_ok

    alloc, wit = flow_feasibility(RING4)
    assert alloc is None
    assert wit.holds(RING4)
    assert (wit.lhs, wit.rhs) == (8, 12)


def test_init_allocation_modes():
    # different seeds actually vary the coin flips
    assert any(
        init_allocation(RING, seed=0).sides() != init_allocation(RING, seed=s).sides()
        for s in range(1, 6)
    )
