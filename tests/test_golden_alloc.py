"""Golden `alloc` output: the transfer allocator's stdout, byte for byte.

``data/golden_alloc.json`` holds, for each case, the argument list after
``iafeas alloc CONFIG``, the exit code and the exact stdout. The cases
cover the bundled variant over q ((6x4,2)^3) and over p ((4x5,2)^3), a
bundled run that gets stuck ((2x4,2)^4), the d = 1 ring in both outcomes
((2x2,1)^3 and (2x2,1)^4), two mixed-stream networks, which only the
plain variant serves (one balances, one gets stuck), and ``--plain`` on
the first case, each at seeds 0 and 3. Regenerate the file with ``PYTHONPATH=src python
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
    ([(6, 4, 2)] * 3, ()),
    ([(4, 5, 2)] * 3, ()),
    ([(2, 4, 2)] * 4, ()),
    ([(2, 2, 1)] * 3, ()),
    ([(2, 2, 1)] * 4, ()),
    ([(2, 2, 1), (4, 5, 2), (3, 3, 1)], ()),
    ([(2, 2, 1), (3, 3, 2), (2, 2, 1)], ()),
    ([(6, 4, 2)] * 3, ("--plain",)),
)
SEEDS = (0, 3)


def run_alloc(tmp_dir, pairs, args):
    path = Path(tmp_dir) / "cfg.json"
    path.write_text(json.dumps({"pairs": [{"M": m, "N": n, "d": d} for m, n, d in pairs]}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["alloc", str(path), *args])
    return code, out.getvalue()


def golden_entries(tmp_dir):
    entries = []
    for pairs, flags in CASES:
        for seed in SEEDS:
            args = [*flags, "--seed", str(seed)]
            code, out = run_alloc(tmp_dir, pairs, args)
            entries.append({"pairs": pairs, "args": args, "exit": code, "stdout": out})
    return entries


# a missing file leaves no parametrized case and fails the coverage test
ENTRIES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


@pytest.mark.parametrize(
    "entry",
    ENTRIES,
    ids=[f"{e['pairs']}{' '.join(e['args'])}".replace(" ", "") for e in ENTRIES],
)
def test_alloc_output_is_byte_identical(entry, tmp_path, monkeypatch):
    monkeypatch.delenv("IA_KIT_SEED", raising=False)
    code, out = run_alloc(tmp_path, [tuple(p) for p in entry["pairs"]], entry["args"])
    assert out == entry["stdout"]
    assert code == entry["exit"]


def test_golden_alloc_covers_both_variants_and_outcomes():
    assert len(ENTRIES) == len(CASES) * len(SEEDS)
    seen = {(json.loads(e["stdout"])["variant"], e["exit"]) for e in ENTRIES}
    assert seen == {("bundled", 0), ("bundled", 1), ("plain", 0), ("plain", 1)}


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("IA_KIT_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(golden_entries(tmp), indent=1) + "\n")
