import json

import numpy as np
import pytest

from iafeas import (
    NetworkConfig,
    PairConfig,
    config_from_dict,
    config_to_dict,
    load_config_file,
    scale_config,
    system_shape,
    validate_config,
)


def test_pair_config_rejects_nonpositive():
    for bad in [(0, 2, 1), (2, 0, 1), (2, 2, 0), (-1, 2, 1)]:
        with pytest.raises(ValueError):
            PairConfig(*bad)
    with pytest.raises(ValueError):
        PairConfig(2.5, 2, 1)


def test_symmetric_constructor_and_describe():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    assert cfg.K == 3
    assert cfg.describe() == "(2x2,1)^3"
    mixed = NetworkConfig.from_tuples([(2, 2, 1), (4, 2, 2)])
    assert mixed.describe() == "{(2x2,1),(4x2,2)}"
    assert not mixed.is_symmetric()
    assert cfg.is_symmetric()


def test_one_based_accessors():
    cfg = NetworkConfig.from_tuples([(2, 3, 1), (4, 5, 2)])
    assert (cfg.M(1), cfg.N(1), cfg.d(1)) == (2, 3, 1)
    assert (cfg.M(2), cfg.N(2), cfg.d(2)) == (4, 5, 2)
    with pytest.raises(IndexError):
        cfg.pair(0)
    with pytest.raises(IndexError):
        cfg.pair(3)


def test_cross_pair_order():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    assert list(cfg.cross_pairs()) == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]


def test_quads_row_order_and_count():
    cfg = NetworkConfig.from_tuples([(2, 2, 1), (2, 2, 1), (4, 2, 2)])
    quads = list(cfg.quads())
    C, _ = system_shape(cfg)
    assert len(quads) == C == 10
    # q varies fastest, then p, then the cross pair in (k, j) order
    assert quads[0] == (1, 2, 1, 1)
    assert quads[1] == (1, 3, 1, 1)
    assert quads[2] == (1, 3, 1, 2)
    assert quads[-1] == (3, 2, 2, 1)


@pytest.mark.parametrize(
    "pairs,expect",
    [
        ([(2, 2, 1)] * 3, (6, 6)),
        ([(7, 8, 3)] * 4, (108, 108)),
        ([(4, 4, 2)], (0, 8)),
        ([(2, 2, 1), (2, 2, 1), (4, 2, 2)], (10, 8)),
    ],
)
def test_system_shape(pairs, expect):
    assert system_shape(NetworkConfig.from_tuples(pairs)) == expect


def test_validate_config_flags_stream_deficit():
    ok = validate_config(NetworkConfig.symmetric(3, 2, 2, 1))
    assert ok == ()
    bad = validate_config(NetworkConfig.from_tuples([(2, 2, 3), (2, 2, 1)]))
    assert bad == (1,)


def test_scale_config():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    doubled = scale_config(cfg, 2)
    assert doubled == NetworkConfig.symmetric(3, 4, 4, 2)
    c0, v0 = system_shape(cfg)
    c1, v1 = system_shape(doubled)
    assert (c1, v1) == (4 * c0, 4 * v0)
    assert scale_config(cfg, 1) == cfg
    with pytest.raises(ValueError):
        scale_config(cfg, 0)
    with pytest.raises(OverflowError):
        scale_config(NetworkConfig.symmetric(2, 1 << 20, 2, 1), 1 << 12)


def test_scaling_shape_identity_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        K = int(rng.integers(1, 5))
        pairs = [
            (int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 4)))
            for _ in range(K)
        ]
        cfg = NetworkConfig.from_tuples(pairs)
        c = int(rng.integers(2, 5))
        c0, v0 = system_shape(cfg)
        c1, v1 = system_shape(scale_config(cfg, c))
        assert c1 == c * c * c0
        assert v1 == c * c * v0


def test_config_json_round_trip():
    cfg = NetworkConfig.from_tuples([(2, 3, 1), (4, 5, 2)])
    obj = config_to_dict(cfg, seed=7, field=(1 << 31) - 1)
    back, seed, field = config_from_dict(obj)
    assert back == cfg
    assert seed == 7
    assert field == (1 << 31) - 1

    obj2 = config_to_dict(cfg)
    back2, seed2, field2 = config_from_dict(obj2)
    assert back2 == cfg and seed2 is None and field2 == "complex"


def test_config_from_dict_rejects_malformed():
    good = {"pairs": [{"M": 2, "N": 2, "d": 1}]}
    config_from_dict(good)
    for bad in [
        [],
        {},
        {"pairs": []},
        {"pairs": [[2, 2, 1]]},
        {"pairs": [{"M": 2, "N": 2}]},
        {"pairs": [{"M": 2, "N": 2, "d": 1}], "seed": -1},
        {"pairs": [{"M": 2, "N": 2, "d": 1}], "seed": True},
        {"pairs": [{"M": 2, "N": 2, "d": 1}], "field": "weird"},
        {"pairs": [{"M": 2, "N": 2, "d": 1}], "field": {"prime": 6}},
        {"pairs": [{"M": 2, "N": 2, "d": 1}], "field": {"prime": 101}},
    ]:
        with pytest.raises(ValueError):
            config_from_dict(bad)


def test_load_config_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"pairs": [{"M": 2, "N": 2, "d": 1}] * 3, "seed": 5}))
    cfg, seed, field = load_config_file(path)
    assert cfg == NetworkConfig.symmetric(3, 2, 2, 1)
    assert seed == 5 and field == "complex"

    missing = tmp_path / "nope.json"
    with pytest.raises(ValueError):
        load_config_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ValueError):
        load_config_file(bad)
