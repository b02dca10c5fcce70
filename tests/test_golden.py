"""Golden `check` reports: one configuration per decision rule.

``data/golden_reports.json`` holds, for each configuration, the exit code
and the JSON that ``iafeas check CONFIG --seed 0 --mode gf`` printed when
the file was made. Refactors must leave these reports byte for byte the
same. The list covers every rule, the budget check skipped above K = 12
((8x8,1)^13), and two rank tests over many receivers: a K = 14 network
with streams 1 to 3 (C = 668) and (8x8,2)^6 (C = 120). Three entries pin
the divisible closed form, which the report reads off the necessary
chain's properness run: (6x4,2)^4, whose allocation is no certificate;
{(4x5,2),(4x5,2),(6x3,2)}, where d divides every M_k but not every N_k;
and a d = 1 network with K = 4.
"""

import json
from pathlib import Path

import pytest

from iafeas.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_reports.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[e["check"]["label"] for e in GOLDEN])
def test_check_report_is_byte_identical(entry, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("IA_KIT_SEED", raising=False)
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"pairs": [{"M": m, "N": n, "d": d} for m, n, d in entry["pairs"]]})
    )
    code = main(["check", str(path), "--seed", "0", "--mode", "gf"])
    out = capsys.readouterr().out
    assert out == json.dumps(entry["check"], indent=2) + "\n"
    assert code == entry["exit"]


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
    sources = {e["check"]["allocation"]["source"] for e in GOLDEN if e["check"]["allocation"]}
    assert sources == {"transfer"}
    assert any("antenna_budget" in e["check"]["necessary"]["skipped"]
               and e["check"]["necessary"]["passed"] for e in GOLDEN)
