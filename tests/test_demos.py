"""Every demo script runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import iafeas

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demo_list_is_complete():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(iafeas.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
