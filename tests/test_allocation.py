import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from iafeas import (
    AllocationPolicy,
    NetworkConfig,
    allocation_from_json_dict,
    config_from_dict,
    flow_feasibility,
    pressures,
    report_allocation,
    run_ptt,
    run_ptt_symmetric,
    verify_allocation,
)

from iafeas.allocation import _instance, _run_transfer_engine

from helpers import (
    coin_flips,
    enumerate_properness_violation,
    init_allocation,
    max_allocation,
    mixed_rung,
    random_bundled_run,
    random_config,
    reference_instance,
    transfer_engine_reference,
)

DATA = Path(__file__).parent / "data"

RING = NetworkConfig.symmetric(3, 2, 2, 1)
RING4 = NetworkConfig.symmetric(4, 2, 2, 1)


def total_deficit(cfg, alloc):
    state = pressures(cfg, alloc)
    return sum(-v for v in list(state.p_r.values()) + list(state.p_t.values()) if v < 0)


def test_policy_all_rx():
    alloc = AllocationPolicy.all_rx(RING)
    assert alloc.sides == {quad: "r" for quad in RING.quads()}


def test_json_dict_round_trip():
    cfg = NetworkConfig.from_tuples([(2, 2, 1), (2, 2, 1), (4, 2, 2)])
    alloc = init_allocation(cfg, seed=11)
    obj = alloc.to_json_dict()
    # keys come out in constraint order
    assert list(obj) == [",".join(str(i) for i in quad) for quad in cfg.quads()]
    back = allocation_from_json_dict(cfg, json.loads(json.dumps(obj)))
    assert back.sides == alloc.sides


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
    assert start.sides == {quad: "r" for quad in RING.quads()}


def test_run_ptt_leaves_its_input_policy_unchanged():
    # the policy is frozen but its side map is a dict: only the engine's
    # copy keeps the caller's map as it was
    rng = np.random.default_rng(31)
    for i in range(40):
        cfg = random_config(rng)
        start = init_allocation(cfg, seed=i)
        before = dict(start.sides)
        run_ptt(cfg, start)
        assert start.sides == before


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
        held = r_cell if res.alloc.sides[quad] == "r" else t_cell
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
        flow = flow_feasibility(cfg)
        assert res.balanced == flow.balanced

        if res.balanced:
            assert res.transfers == deficit
            assert pressures(cfg, res.alloc).all_nonnegative()
            assert verify_allocation(cfg, res.alloc).capacities_ok
            assert verify_allocation(cfg, flow.alloc).capacities_ok
        else:
            assert res.witness.holds(cfg)
            assert flow.witness is not None and flow.witness.holds(cfg)


def test_run_ptt_symmetric_bundles_over_q():
    cfg = NetworkConfig.symmetric(3, 6, 4, 2)
    # from the all-receive start and from a random one
    for res in (run_ptt_symmetric(cfg), random_bundled_run(cfg, seed=0)):
        assert res.balanced
        rep = verify_allocation(cfg, res.alloc)
        assert rep.certificate
        assert rep.uniform_over_q


def test_run_ptt_symmetric_bundles_over_p():
    # d divides the transmit antennas only, so the mirrored variant runs
    cfg = NetworkConfig.symmetric(3, 4, 5, 2)
    for res in (run_ptt_symmetric(cfg), random_bundled_run(cfg, seed=0)):
        assert res.balanced
        rep = verify_allocation(cfg, res.alloc)
        assert rep.certificate
        assert rep.uniform_over_p


def test_run_ptt_symmetric_stuck_has_stream_level_witness():
    cfg = NetworkConfig.symmetric(4, 2, 4, 2)
    for res in (run_ptt_symmetric(cfg), random_bundled_run(cfg, seed=0)):
        assert not res.balanced
        assert res.witness is not None
        assert res.witness.holds(cfg)


def test_run_ptt_symmetric_guards():
    with pytest.raises(ValueError, match="divide"):
        run_ptt_symmetric(NetworkConfig.symmetric(3, 5, 5, 2))
    with pytest.raises(ValueError, match="stream counts differ"):
        run_ptt_symmetric(NetworkConfig.from_tuples([(4, 4, 2), (4, 4, 1), (4, 4, 1)]))
    with pytest.raises(ValueError, match="admissible"):
        run_ptt_symmetric(NetworkConfig.symmetric(3, 2, 3, 3))


def test_run_ptt_symmetric_single_stream_matches_plain():
    for cfg in (RING, RING4, NetworkConfig.from_tuples([(3, 2, 1), (2, 4, 1), (2, 2, 1)])):
        for seed in range(5):
            bundled = random_bundled_run(cfg, seed=seed)
            plain = run_ptt(cfg, init_allocation(cfg, seed=seed))
            assert bundled.balanced == plain.balanced
            assert bundled.transfers == plain.transfers
            assert bundled.alloc.sides == plain.alloc.sides
        # from the all-receive start it moves what the properness run moves
        bundled, plain = run_ptt_symmetric(cfg), flow_feasibility(cfg)
        assert bundled.balanced == plain.balanced
        assert bundled.transfers == plain.transfers
        assert bundled.alloc.sides == plain.alloc.sides


@st.composite
def engine_instances(draw):
    """A random network and a bundle axis its antennas admit.

    Plain instances take ``random_config`` as drawn. Bundled ones give every
    pair the largest drawn stream count d and round the split side's antenna
    counts (N_k over q, M_k over p) up to a multiple of d.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = random_config(rng, k_hi=6, mn_hi=8, d_hi=3)
    bundle = draw(st.sampled_from(["", "q", "p"]))
    if bundle:
        d = max(pair.d for pair in cfg.pairs)
        tuples = []
        for pair in cfg.pairs:
            M, N = max(pair.M, d), max(pair.N, d)
            if bundle == "q":
                N = -(-N // d) * d
            else:
                M = -(-M // d) * d
            tuples.append((M, N, d))
        cfg = NetworkConfig.from_tuples(tuples)
    return cfg, bundle


@settings(max_examples=200, deadline=None)
@given(engine_instances(), st.one_of(st.none(), st.integers(0, 2**16)))
# the ladder's rungs, from the all-receive start and from coins
@example((NetworkConfig.symmetric(15, 8, 8, 1), ""), None)
@example((mixed_rung(12, (1, 2)), ""), None)
@example((mixed_rung(14, (1, 2, 3)), ""), None)
@example((NetworkConfig.symmetric(16, 17, 17, 2), ""), None)
@example((NetworkConfig.symmetric(20, 21, 21, 2), ""), None)
@example((mixed_rung(12, (1, 2)), ""), 11)
@example((mixed_rung(14, (1, 2, 3)), ""), 11)
@example((NetworkConfig.symmetric(16, 17, 17, 2), ""), 11)
@example((NetworkConfig.symmetric(20, 21, 21, 2), ""), 11)
def test_transfer_engine_matches_reference(case, start):
    # start None is the all-receive start of the properness run, an integer
    # the coin flips of a random start; the reference runs on the instance
    # keyed by cell and item tuples
    cfg, bundle = case
    ref = reference_instance(cfg, bundle)
    items = list(ref.ends)
    assign = dict.fromkeys(items, "r") if start is None else coin_flips(items, start)
    on_r = [side == "r" for side in assign.values()]
    inst = _instance(cfg, bundle)
    assert inst.cells == tuple(sorted(ref.caps))
    assert inst.caps == [ref.caps[cell] for cell in inst.cells]
    assert [tuple(inst.cells[c] for c in end) for end in inst.ends] == list(ref.ends.values())
    assert _run_transfer_engine(inst, on_r) == transfer_engine_reference(ref, assign)
    assert on_r == [side == "r" for side in assign.values()]


def test_flow_feasibility_witness_numbers():
    res = flow_feasibility(RING)
    assert res.balanced and res.witness is None
    assert verify_allocation(RING, res.alloc).capacities_ok

    res = flow_feasibility(RING4)
    assert not res.balanced
    assert res.witness.holds(RING4)
    assert (res.witness.lhs, res.witness.rhs) == (8, 12)


def test_init_allocation_modes():
    # different seeds actually vary the coin flips
    assert any(
        init_allocation(RING, seed=0).sides != init_allocation(RING, seed=s).sides
        for s in range(1, 6)
    )


def counted_verify():
    """``verify_allocation`` that lists the allocations it is given."""
    calls = []

    def counted(cfg, alloc):
        calls.append(alloc)
        return verify_allocation(cfg, alloc)

    return counted, calls


def test_report_allocation_keeps_the_properness_run():
    verify, calls = counted_verify()
    for cfg in (RING, NetworkConfig.symmetric(3, 6, 4, 2), NetworkConfig.symmetric(3, 5, 5, 2)):
        calls.clear()
        run, report, variant = report_allocation(cfg, verify=verify)
        assert variant == "plain"
        assert run == flow_feasibility(cfg)
        assert report == verify_allocation(cfg, run.alloc)
        assert calls == [run.alloc]
    # outside the divisible family a run that is no certificate stays
    assert not report.certificate


def test_report_allocation_retries_bundled_on_the_divisible_family():
    # the smallest network of the K = 3, M, N <= 6 census that is divisible
    # and whose all-receive allocation is no certificate
    cfg = NetworkConfig.from_tuples([(3, 4, 2), (3, 4, 2), (6, 4, 2)])
    plain = flow_feasibility(cfg)
    assert plain.balanced and not verify_allocation(cfg, plain.alloc).certificate

    verify, calls = counted_verify()
    run, report, variant = report_allocation(cfg, plain, verify)
    assert variant == "bundled"
    assert run == run_ptt_symmetric(cfg)
    assert report.certificate and report.uniform_over_q
    assert calls == [plain.alloc, run.alloc]


def test_report_allocation_returns_a_stuck_run_unverified():
    verify, calls = counted_verify()
    for cfg in (RING4, NetworkConfig.symmetric(4, 2, 4, 2)):
        run, report, variant = report_allocation(cfg, verify=verify)
        assert (report, variant) == (None, "plain")
        assert run == flow_feasibility(cfg)
    assert calls == []
