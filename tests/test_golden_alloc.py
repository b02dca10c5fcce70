"""Golden `alloc` output: the transfer allocator's stdout, byte for byte.

``data/golden_alloc.json`` holds, for each case, the exit code and the
exact stdout of ``iafeas alloc CONFIG``. The cases cover balanced
all-receive runs on the divisible family ((6x4,2)^3, where d divides
every N_k, and (4x5,2)^3, where it divides every M_k), the bundled run
that replaces an all-receive allocation which
is no certificate ({(3x4,2),(3x4,2),(6x4,2)}), a stuck divisible network
((2x4,2)^4), the d = 1 ring in both outcomes ((2x2,1)^3 and (2x2,1)^4)
and two mixed-stream networks (one balances, one gets stuck). A stuck
all-receive run is printed as it stands, so no case prints a stuck
bundled run. ``alloc`` reads no seed, so each case is also run at seeds 0
and 3, given through the config file and ``IA_KIT_SEED``, and must print
the same bytes. Regenerate the file with ``PYTHONPATH=src python
tests/test_golden_alloc.py`` only when an output change is intended.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from iafeas.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_alloc.json"

CASES = (
    [(6, 4, 2)] * 3,
    [(4, 5, 2)] * 3,
    [(3, 4, 2), (3, 4, 2), (6, 4, 2)],
    [(2, 4, 2)] * 4,
    [(2, 2, 1)] * 3,
    [(2, 2, 1)] * 4,
    [(2, 2, 1), (4, 5, 2), (3, 3, 1)],
    [(2, 2, 1), (3, 3, 2), (2, 2, 1)],
)


SEEDS = (0, 3)


def run_alloc(tmp_dir, pairs, seed=None):
    path = Path(tmp_dir) / "cfg.json"
    obj = {"pairs": [{"M": m, "N": n, "d": d} for m, n, d in pairs]}
    if seed is not None:
        obj["seed"] = seed
    path.write_text(json.dumps(obj))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["alloc", str(path)])
    return code, out.getvalue()


def golden_entries(tmp_dir):
    entries = []
    for pairs in CASES:
        code, out = run_alloc(tmp_dir, pairs)
        entries.append({"pairs": pairs, "exit": code, "stdout": out})
    return entries


# a missing file leaves no parametrized case and fails the coverage test
ENTRIES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


RUNS = [(e, seed) for e in ENTRIES for seed in (None, *SEEDS)]


@pytest.mark.parametrize(
    "entry,seed",
    RUNS,
    ids=[
        f"{e['pairs']}".replace(" ", "") + ("" if seed is None else f"--seed{seed}")
        for e, seed in RUNS
    ],
)
def test_alloc_output_is_byte_identical(entry, seed, tmp_path, monkeypatch):
    if seed is None:
        monkeypatch.delenv("IA_KIT_SEED", raising=False)
    else:
        monkeypatch.setenv("IA_KIT_SEED", str(seed))
    code, out = run_alloc(tmp_path, [tuple(p) for p in entry["pairs"]], seed)
    assert out == entry["stdout"]
    assert code == entry["exit"]


def test_golden_alloc_covers_both_variants_and_outcomes():
    assert len(ENTRIES) == len(CASES)
    seen = {(json.loads(e["stdout"])["variant"], e["exit"]) for e in ENTRIES}
    assert seen == {("bundled", 0), ("plain", 0), ("plain", 1)}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(golden_entries(tmp), indent=1) + "\n")
