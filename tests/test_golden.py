"""Golden `check` reports: one configuration per decision rule.

``data/golden_reports.json`` holds, for each configuration, the exit code
and the JSON that ``iafeas check CONFIG --seed 0 --mode gf`` printed when
the file was made. Refactors must leave these reports byte for byte the
same. The list covers every rule, the budget check at K = 13
((8x8,1)^13), and two rank tests over many receivers: a K = 14 network
with streams 1 to 3 (C = 668) and (8x8,2)^6 (C = 120). Three entries pin
the divisible closed form, which the report reads off the necessary
chain's properness run: (6x4,2)^4, whose properness run's allocation is
no certificate, so its allocation section holds the bundled run's;
{(4x5,2),(4x5,2),(6x3,2)}, where d divides every M_k but not every N_k;
and a d = 1 network with K = 4. An allocation section carries the
certificate bit, the certificate conditions and the policy, nothing
constant. Regenerate the file with ``PYTHONPATH=src python
tests/test_golden.py`` only when an output change is intended.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from iafeas.cli import main

GOLDEN_FILE = Path(__file__).parent / "data" / "golden_reports.json"

CASES = (
    [(2, 2, 1)] * 3,
    [(2, 2, 1)] * 4,
    [(1, 3, 2), (4, 4, 1)],
    [(3, 3, 2), (3, 3, 2), (5, 5, 1)],
    [(4, 4, 2), (4, 8, 2), (6, 4, 2)],
    [(5, 5, 1), (3, 5, 2)],
    [(5, 3, 1), (3, 3, 2), (4, 4, 2), (6, 6, 1)],
    [(1, 1, 1), (4, 4, 2), (4, 4, 2)],
    [(8, 8, 1)] * 13,
    [(6, 4, 2)] * 4,
    [(16, 15, 2)] * 3 + [(24, 22, 3)] * 2 + [(9, 7, 1), (15, 16, 2), (9, 7, 1)]
    + [(23, 23, 3)] * 2 + [(15, 16, 2)] + [(8, 8, 1)] * 3,
    [(8, 8, 2)] * 6,
    [(4, 5, 2), (4, 5, 2), (6, 3, 2)],
    [(5, 2, 1), (2, 3, 1), (3, 3, 1), (2, 2, 1)],
)


def run_check(tmp_dir, pairs):
    path = Path(tmp_dir) / "cfg.json"
    path.write_text(json.dumps({"pairs": [{"M": m, "N": n, "d": d} for m, n, d in pairs]}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", str(path), "--seed", "0", "--mode", "gf"])
    return code, out.getvalue()


GOLDEN = json.loads(GOLDEN_FILE.read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[e["check"]["label"] for e in GOLDEN])
def test_check_report_is_byte_identical(entry, tmp_path, monkeypatch):
    monkeypatch.delenv("IA_KIT_SEED", raising=False)
    code, out = run_check(tmp_path, entry["pairs"])
    assert out == json.dumps(entry["check"], indent=2) + "\n"
    assert code == entry["exit"]


def test_golden_reports_are_the_cases():
    assert [[tuple(p) for p in e["pairs"]] for e in GOLDEN] == list(CASES)


def test_golden_reports_cover_every_rule():
    rules = {e["check"]["rule"] for e in GOLDEN}
    assert rules == {
        "closed-form-symmetric",
        "closed-form-divisible",
        "allocation-certificate",
        "rank-test",
        "inconclusive",
        "necessary:stream_support",
        "necessary:antenna_budget",
        "necessary:properness",
    }
    # the budget runs at every K, (8x8,1)^13 included
    big = next(e for e in GOLDEN if e["check"]["label"] == "(8x8,1)^13")
    assert "antenna_budget" in big["check"]["necessary"]["checks"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entries = []
        for pairs in CASES:
            code, out = run_check(tmp, pairs)
            entries.append({"pairs": pairs, "exit": code, "check": json.loads(out)})
        GOLDEN_FILE.write_text(json.dumps(entries, indent=1) + "\n")
