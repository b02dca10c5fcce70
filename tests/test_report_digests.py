"""Report bytes pinned by digest over random configurations.

``data/report_digests.json`` holds the label and the sha256 of
``json.dumps(feasibility_report(cfg, seed=i).to_dict(), sort_keys=True)``
for the first 300 draws of ``helpers.random_config`` (numpy seed
``DIGEST_SEED``, K 2-8, M, N <= 8, d <= 3), where ``i`` is the draw's
index. A change that moves any report byte on these configurations fails
here and names the first configuration that moved.

Few of those draws repeat a pair type, so ``data/group_report_digests.json``
pins the rank test's group point the same way: ``FALLBACKS``, whose group
point is deficient, then ``GROUP_COUNT`` draws of :func:`group_config`
(numpy seed ``GROUP_SEED``), then ``PRIME_COUNT`` draws of
:func:`prime_group_config` (numpy seed ``PRIME_SEED``), whose group points
mostly take a prime of their own. Each entry also records the path its
rank section took: ``group`` (a full group point decided), ``fallback`` (a
deficient group point, random draws decided) or ``random``, and the
group's own prime where the section records one.

``data/ladder_report_digests.json`` pins the benchmark ladder's five rungs
whole, at ladder seeds ``LADDER_SEEDS``: each entry holds the rung's pairs
and the report seed of the ladder's first pass, as
``perfbench/workloads.py`` draws them, so the test itself needs nothing
from the benchmark. The rungs include the groupless K = 14 mix and the
(Z_2)^2 x Z_5 group point of (21x21,2)^20, which no other pin covers.

Regenerate the three files with ``PYTHONPATH=src python
tests/test_report_digests.py`` only when a report format change is
intended.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from iafeas import NetworkConfig, feasibility_report

from helpers import random_config

DIGESTS = Path(__file__).parent / "data" / "report_digests.json"
DIGEST_SEED = 20260
DIGEST_COUNT = 300

GROUP_DIGESTS = Path(__file__).parent / "data" / "group_report_digests.json"
GROUP_SEED = 20261
GROUP_COUNT = 56
PRIME_SEED = 20262
PRIME_COUNT = 12
LADDER_DIGESTS = Path(__file__).parent / "data" / "ladder_report_digests.json"
LADDER_SEEDS = (1, 2)
#: generically deficient networks that pass every counting check
FALLBACKS = (
    ((2, 1, 1), (2, 1, 1), (5, 5, 2), (5, 5, 2)),
    ((1, 2, 1), (1, 2, 1), (5, 5, 2), (5, 5, 2)),
    ((2, 1, 1), (5, 5, 2), (2, 1, 1), (5, 5, 2)),
    ((4, 2, 2), (4, 2, 2), (10, 10, 4), (10, 10, 4)),
)


def _entry(cfg, seed):
    report = feasibility_report(cfg, seed=seed).to_dict()
    text = json.dumps(report, sort_keys=True)
    return {"label": cfg.describe(), "sha256": hashlib.sha256(text.encode()).hexdigest()}, report


def report_digests():
    rng = np.random.default_rng(DIGEST_SEED)
    out = []
    for i in range(DIGEST_COUNT):
        cfg = random_config(rng, k_lo=2, k_hi=8, mn_hi=8, d_hi=3)
        out.append(_entry(cfg, i)[0])
    return out


def group_config(rng):
    """2, 3, 4 or 6 pairs of each of up to 4 types, at most 8, shuffled.

    d is 1 or 2 and each antenna count d plus a slack of K d / 4 to K d,
    so that most draws pass the necessary chain.
    """
    mult = int(rng.choice([2, 3, 4, 6]))
    kinds = int(rng.integers(1, 8 // mult + 1))
    K = mult * kinds
    pairs = []
    for _ in range(kinds):
        d = int(rng.integers(1, 3))
        M, N = (d + int(rng.integers(K * d // 4, K * d + 1)) for _ in "MN")
        pairs += [(M, N, d)] * mult
    return NetworkConfig.from_tuples([pairs[i] for i in rng.permutation(K)])


def prime_group_config(rng):
    """5 pairs of each of one or two types, or 10 of one, shuffled.

    5 does not divide 2**31 - 2, so these groups take a prime of their
    own. Streams and antennas are drawn as in :func:`group_config`.
    """
    mult = int(rng.choice([5, 10]))
    kinds = int(rng.integers(1, 10 // mult + 1))
    K = mult * kinds
    pairs = []
    for _ in range(kinds):
        d = int(rng.integers(1, 3))
        M, N = (d + int(rng.integers(K * d // 4, K * d + 1)) for _ in "MN")
        pairs += [(M, N, d)] * mult
    return NetworkConfig.from_tuples([pairs[i] for i in rng.permutation(K)])


def group_report_digests():
    rng = np.random.default_rng(GROUP_SEED)
    cfgs = [NetworkConfig.from_tuples(pairs) for pairs in FALLBACKS]
    cfgs += [group_config(rng) for _ in range(GROUP_COUNT)]
    rng = np.random.default_rng(PRIME_SEED)
    cfgs += [prime_group_config(rng) for _ in range(PRIME_COUNT)]
    out = []
    for i, cfg in enumerate(cfgs):
        entry, report = _entry(cfg, i)
        rank = report["rank"]
        fallback = "group point" in rank.get("note", "")
        entry["path"] = "group" if "group" in rank else "fallback" if fallback else "random"
        if "prime" in rank.get("group", {}):
            entry["prime"] = rank["group"]["prime"]
        out.append(entry)
    return out


def ladder_report_digests():
    sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
    from workloads import ladder

    out = []
    for seed in LADDER_SEEDS:
        wl = ladder(seed)
        for pairs, report_seed in zip(wl.configs, wl.report_seeds):
            cfg = NetworkConfig.from_tuples(pairs)
            entry = _entry(cfg, report_seed)[0]
            out.append({"seed": seed, "pairs": [list(pair) for pair in pairs],
                        "report_seed": report_seed, **entry})
    return out


def _assert_pinned(got, expected):
    assert len(got) == len(expected)
    for i, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"draw {i}: report of {g['label']} differs from the pinned digest"


def test_report_digests_are_unchanged():
    _assert_pinned(report_digests(), json.loads(DIGESTS.read_text()))


def test_group_point_report_digests_are_unchanged():
    expected = json.loads(GROUP_DIGESTS.read_text())
    paths = [e["path"] for e in expected]
    # the pinned list covers both outcomes of the group point, and group
    # points at a prime of their own
    assert paths.count("group") >= 40 and paths.count("fallback") >= 1
    assert any("prime" in e for e in expected)
    _assert_pinned(group_report_digests(), expected)


def test_ladder_report_digests_are_unchanged():
    expected = json.loads(LADDER_DIGESTS.read_text())
    assert sorted({e["seed"] for e in expected}) == list(LADDER_SEEDS)
    got = []
    for e in expected:
        cfg = NetworkConfig.from_tuples(e["pairs"])
        entry = {"seed": e["seed"], "pairs": e["pairs"], "report_seed": e["report_seed"]}
        got.append({**entry, **_entry(cfg, e["report_seed"])[0]})
    _assert_pinned(got, expected)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(report_digests(), indent=1) + "\n")
    GROUP_DIGESTS.write_text(json.dumps(group_report_digests(), indent=1) + "\n")
    lines = ",\n ".join(json.dumps(e) for e in ladder_report_digests())
    LADDER_DIGESTS.write_text(f"[\n {lines}\n]\n")
