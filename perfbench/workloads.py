"""Seeded input generators, one per workload.

Every generator is a pure function of the seed: it returns the
configurations the program receives (as tuples of (M, N, d) pairs) and the
master seed of each one's feasibility report. Nothing else reaches the
program. The stdlib ``random.Random`` drives the draws so that a seed
gives the same inputs under any numpy version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# README gap config: passes every counting test, rank 14 of 16.
GAP_CONFIG = ((1, 1, 1), (4, 4, 2), (4, 4, 2))


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload.

    ``configs`` are pair tuples; ``report_seeds[i]`` is the master seed of
    config i's report in the first pass (pass r uses it plus r, so every
    pass draws fresh channels). ``warmup`` is the config of the untimed
    warm-up call that ends set-up. ``options`` are the keyword arguments of
    ``feasibility_report``.
    """

    name: str
    configs: tuple
    report_seeds: tuple
    warmup: tuple
    options: dict


def _report_seeds(rng: random.Random, n: int) -> tuple:
    return tuple(rng.randrange(1 << 30) for _ in range(n))


def _relabel(rng: random.Random, pairs) -> tuple:
    """Random pair order; relabelling the pairs preserves feasibility."""
    pairs = list(pairs)
    rng.shuffle(pairs)
    return tuple(pairs)


def sweep_grid() -> tuple:
    """The ROADMAP sweep grid: K 3:6, M = N 2:10, d 1:3 (108 configs)."""
    return tuple(
        ((m, m, d),) * k for k in range(3, 7) for m in range(2, 11) for d in range(1, 4)
    )


def random_asymmetric(rng: random.Random, n: int) -> tuple:
    """Stream-admissible configs with K 2-6, M, N <= 8, d <= 3.

    K cycles through 2..6 instead of being drawn, so every seed carries
    the same mix of network sizes and throughput compares across seeds.
    Fully symmetric draws are redrawn; the grid already covers them.
    """
    out = []
    while len(out) < n:
        k = 2 + len(out) % 5
        pairs = []
        for _ in range(k):
            m = rng.randint(1, 8)
            nn = rng.randint(1, 8)
            pairs.append((m, nn, rng.randint(1, min(m, nn, 3))))
        if len(set(pairs)) > 1:
            out.append(tuple(pairs))
    return tuple(out)


def _aligned_mix(k: int, ds) -> tuple:
    """K pairs with streams cycling through ``ds`` and M + N = (K + 1) d + 1.

    Mixed stream counts rule out both closed forms, so the verdict comes
    from the allocation certificate or the rank test.
    """
    pairs = []
    for i in range(k):
        d = ds[i % len(ds)]
        total = (k + 1) * d + 1
        m = total // 2 + i % 2
        pairs.append((m, total - m, d))
    return tuple(pairs)


def survey(seed: int) -> Workload:
    rng = random.Random(f"survey/{seed}")
    configs = sweep_grid() + random_asymmetric(rng, 300)
    return Workload("survey", configs, _report_seeds(rng, len(configs)),
                    ((3, 3, 1),) * 4, {"mode": "gf"})


def ladder(seed: int) -> Workload:
    rng = random.Random(f"ladder/{seed}")
    # An odd number of rungs puts the median on the middle rung, whose time
    # is mostly the rank kernel, rather than between two rungs.
    configs = (
        ((8, 8, 1),) * 15,  # C = 210, K >= 13: budget scan skipped
        _relabel(rng, _aligned_mix(12, (1, 2))),  # C = 294, K = 12: 4^K scan
        _relabel(rng, _aligned_mix(14, (1, 2, 3))),  # C = 668, rank test
        ((17, 17, 2),) * 16,  # C = 960
        ((21, 21, 2),) * 20,  # C = 1520
    )
    return Workload("ladder", configs, _report_seeds(rng, len(configs)),
                    ((8, 8, 1),) * 15, {"mode": "gf"})


def corroborate(seed: int) -> Workload:
    rng = random.Random(f"corroborate/{seed}")
    # Solver time varies with the channel draw (alt_min stops anywhere from
    # 1 to 500 iterations), so a run averages many draws of cheap configs.
    # With eleven configs the median and the 90th percentile are the sixth
    # and the tenth config, (8x8,2)^4 and (8x8,1)^10: their latency hardly
    # varies with the draw and sits well apart from their neighbours', so
    # neither percentile can flip between two configs. Latencies are
    # medians on one core of a 2.1 GHz Xeon.
    configs = (
        ((3, 3, 1),) * 3,  # ~5 ms
        _relabel(rng, ((2, 3, 1), (3, 2, 1), (3, 3, 1))),  # ~8 ms
        ((6, 6, 2),) * 3,  # ~8 ms
        ((4, 4, 1),) * 4,  # ~8 ms
        ((5, 5, 1),) * 5,  # ~12 ms
        ((8, 8, 2),) * 4,  # ~16 ms, the median
        ((2, 2, 1),) * 3,  # ~45 ms, tight: alt_min takes 30 to 250 iterations
        ((3, 4, 1),) * 5,  # ~60 ms
        ((7, 7, 1),) * 8,  # ~60 ms
        ((8, 8, 1),) * 10,  # ~175 ms, C = 90, the 90th percentile
        ((2, 2, 1),) * 4,  # ~450 ms, infeasible properness: solvers stall
    )
    # The warm-up solves (6x6,2)^5, C = 80: the first LAPACK call on a
    # problem that size costs about a second once per process.
    return Workload("corroborate", configs, _report_seeds(rng, len(configs)),
                    ((6, 6, 2),) * 5, {"mode": "numeric", "solve": True})


def cold_check(seed: int) -> Workload:
    rng = random.Random(f"cold_check/{seed}")
    configs = (
        ((2, 2, 1),) * 3,  # feasible, closed form
        _relabel(rng, ((2, 3, 1), (3, 2, 1), (3, 3, 1))),  # feasible, asymmetric
        ((2, 2, 1),) * 4,  # infeasible, properness witness
        _relabel(rng, ((3, 3, 2), (3, 3, 2), (5, 5, 1))),  # infeasible, antenna budget
        _relabel(rng, GAP_CONFIG),  # undetermined at the seed code
        _relabel(rng, ((5, 6, 2), (2, 4, 2), (2, 5, 2))),  # undetermined, rank 23 of 24
    )
    return Workload("cold_check", configs, _report_seeds(rng, len(configs)),
                    ((2, 2, 1),) * 3, {"mode": "gf"})


WORKLOADS = {
    "survey": survey,
    "ladder": ladder,
    "corroborate": corroborate,
    "cold_check": cold_check,
}
