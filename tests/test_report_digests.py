"""Report bytes pinned by digest over random configurations.

``data/report_digests.json`` holds the label and the sha256 of
``json.dumps(feasibility_report(cfg, seed=i).to_dict(), sort_keys=True)``
for the first 300 draws of ``helpers.random_config`` (numpy seed
``DIGEST_SEED``, K 2-8, M, N <= 8, d <= 3), where ``i`` is the draw's
index. A change that moves any report byte on these configurations fails
here and names the first configuration that moved. Regenerate the file
with ``PYTHONPATH=src python tests/test_report_digests.py`` only when a
report format change is intended.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from iafeas import feasibility_report

from helpers import random_config

DIGESTS = Path(__file__).parent / "data" / "report_digests.json"
DIGEST_SEED = 20260
DIGEST_COUNT = 300


def report_digests():
    rng = np.random.default_rng(DIGEST_SEED)
    out = []
    for i in range(DIGEST_COUNT):
        cfg = random_config(rng, k_lo=2, k_hi=8, mn_hi=8, d_hi=3)
        text = json.dumps(feasibility_report(cfg, seed=i).to_dict(), sort_keys=True)
        out.append({"label": cfg.describe(), "sha256": hashlib.sha256(text.encode()).hexdigest()})
    return out


def test_report_digests_are_unchanged():
    expected = json.loads(DIGESTS.read_text())
    got = report_digests()
    assert len(got) == len(expected)
    for i, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"draw {i}: report of {g['label']} differs from the pinned digest"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(report_digests(), indent=1) + "\n")
