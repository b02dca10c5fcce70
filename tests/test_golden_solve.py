"""Golden `check --solve` reports: the solver section, pinned.

``data/golden_solve.json`` holds, for each configuration, the exit code
and the JSON report that ``iafeas check CONFIG --seed 0 --mode numeric
--solve`` printed when the file was made. The cases are the ring
(2x2,1)^3, which the solvers align; (2x2,1)^4, which fails properness and
on which both solvers stall at a plateau and both sections note it; a
mixed-stream network; a single pair, whose Gauss-Newton section notes
that there are no cross constraints; and (8x8,1)^10 and (3x4,1)^5, the
slow tail of the benchmark's corroborate workload, which pin the iteration
counts of its longest feasible solves.

Verdicts, iteration counts, ``converged`` and ``agrees`` must match
exactly; floats match to a relative 1e-9. Each report is made in a child
process with one BLAS thread, as the file was: a converged Gauss-Newton
residual is rounding noise, and on (8x8,1)^10 a second BLAS thread moves
it by 2e-6 relative. Regenerate the file with
``PYTHONPATH=src python tests/test_golden_solve.py`` only when an output
change is intended.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iafeas

GOLDEN = Path(__file__).parent / "data" / "golden_solve.json"

CASES = (
    [(2, 2, 1)] * 3,
    [(2, 2, 1)] * 4,
    [(2, 3, 1), (3, 3, 2), (4, 3, 1)],
    [(2, 2, 1)],
    [(8, 8, 1)] * 10,
    [(3, 4, 1)] * 5,
)


def run_check(tmp_dir, pairs):
    path = Path(tmp_dir) / "cfg.json"
    path.write_text(json.dumps({"pairs": [{"M": m, "N": n, "d": d} for m, n, d in pairs]}))
    env = dict(os.environ, PYTHONPATH=str(Path(iafeas.__file__).parents[1]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("IA_KIT_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "iafeas", "check", str(path), "--seed", "0",
         "--mode", "numeric", "--solve"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, json.loads(proc.stdout)


def assert_matches(got, want, where="report"):
    """Equal structure and values; floats to a relative 1e-9."""
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-9), f"{where}: {got} != {want}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


# a missing file leaves no parametrized case and fails the coverage test
ENTRIES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["check"]["label"] for e in ENTRIES])
def test_solve_report_matches(entry, tmp_path):
    code, report = run_check(tmp_path, [tuple(p) for p in entry["pairs"]])
    assert code == entry["exit"]
    assert_matches(report, entry["check"])


def test_golden_solve_covers_solved_stalled_and_single_pair():
    assert len(ENTRIES) == len(CASES)
    solvers = [e["check"]["solver"] for e in ENTRIES]
    assert any(s["alt_min"]["converged"] and s["gauss_newton"]["converged"] for s in solvers)
    assert any(not s["alt_min"]["converged"] and not s["gauss_newton"]["converged"] for s in solvers)
    assert all(s["agrees"] for s in solvers)
    single = next(e for e in ENTRIES if len(e["pairs"]) == 1)
    assert single["check"]["rank"]["note"] == "no cross constraints"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entries = []
        for pairs in CASES:
            code, report = run_check(tmp, pairs)
            entries.append({"pairs": pairs, "exit": code, "check": report})
        GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
