"""The census: every small network, once up to relabelling and reciprocity.

``data/census_counts.json`` pins, for the K = 3, M, N <= 4 census of
``helpers.census``, the number of networks, how many pass the necessary
chain, and how many ``feasibility_report(cfg, seed=1)`` decides by each
rule. A change that moves a rule on any small network fails here. On
the same census, ``iafeas alloc`` prints the allocation that
``iafeas check`` reports.

Run the file as a script to print the counts of any census, for example
``PYTHONPATH=src python tests/test_census.py 3 6``. With no arguments it
rewrites the pinned file; do that only when a rule change is intended.
"""

import contextlib
import functools
import io
import json
import sys
from collections import Counter
from pathlib import Path

from iafeas import NetworkConfig, feasibility_report
from iafeas.cli import main

from helpers import census, reciprocal_pairs

COUNTS = Path(__file__).parent / "data" / "census_counts.json"
PINNED = (3, 4)
SEED = 1


def census_reports(K, mn_hi):
    return [
        (pairs, feasibility_report(NetworkConfig.from_tuples(pairs), seed=SEED))
        for pairs in census(K, mn_hi)
    ]


def census_counts(reports, K, mn_hi):
    rules = Counter(rep.rule for _, rep in reports)
    return {
        "K": K,
        "mn_hi": mn_hi,
        "networks": len(reports),
        "chain_passes": sum(rep.necessary.passed for _, rep in reports),
        "rules": dict(sorted(rules.items())),
    }


@functools.lru_cache(maxsize=1)
def pinned_reports():
    return census_reports(*PINNED)


def test_census_counts_are_unchanged():
    assert census_counts(pinned_reports(), *PINNED) == json.loads(COUNTS.read_text())


def test_census_reports_are_sound_and_reciprocal():
    for pairs, rep in pinned_reports():
        assert rep.sound, rep.cfg.describe()
        mirror = feasibility_report(NetworkConfig.from_tuples(reciprocal_pairs(pairs)), seed=SEED)
        assert mirror.verdict == rep.verdict, rep.cfg.describe()


def test_alloc_prints_the_allocation_check_reports(tmp_path):
    path = tmp_path / "cfg.json"
    for pairs, rep in pinned_reports():
        if not rep.necessary.passed:
            continue
        report = rep.to_dict()
        if rep.rule == "closed-form-divisible":
            assert report["allocation"]["certificate"], rep.cfg.describe()
        path.write_text(json.dumps({"pairs": [{"M": m, "N": n, "d": d} for m, n, d in pairs]}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["alloc", str(path)]) == 0
        printed = json.loads(out.getvalue())
        assert printed["allocation"] == report["allocation"]["policy"], rep.cfg.describe()
        assert printed["certificate"] == report["allocation"]["certificate"]


if __name__ == "__main__":
    if len(sys.argv) == 3:
        K, mn_hi = int(sys.argv[1]), int(sys.argv[2])
        reports = census_reports(K, mn_hi)
        counts = census_counts(reports, K, mn_hi)
        counts["divisible_certified"] = sum(
            rep.rule == "closed-form-divisible" and rep.allocation_report.certificate
            for _, rep in reports
        )
        print(json.dumps(counts, indent=1))
    else:
        COUNTS.write_text(json.dumps(census_counts(pinned_reports(), *PINNED), indent=1) + "\n")
