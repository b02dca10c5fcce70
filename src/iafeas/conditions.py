"""Necessary feasibility conditions and closed-form families.

Three counting conditions are necessary for alignment feasibility:

* stream support: every pair needs min(M_k, N_k) >= d_k;
* antenna budget: for any transmitter group T and receiver group R that
  some link subset can induce, max(sum_T M_j, sum_R N_k) must cover the
  streams of everyone involved;
* properness: for every set of cross links, the free variables of the
  involved transceivers must outnumber the scalar constraints the links
  impose.

Each check returns ``None`` when it passes, otherwise a
:class:`~iafeas.witnesses.SubsetWitness` pinpointing a violated instance.
``necessary_verdict`` chains them in that order. The module also houses
two closed-form feasibility families (fully symmetric networks and
equal-stream networks with divisible antenna counts) and a scaling probe
that compares a configuration's rank verdict against its c-fold copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import (
    _bundled_instance,
    _flow_solve,
    _witness_from_tree,
    flow_feasibility,
)
from .config import NetworkConfig, scale_config, system_shape, validate_config
from .rank import DEFAULT_PRIME, DEFAULT_TRIALS, RankVerdict, generic_full_row_rank
from .witnesses import (
    ANTENNA_BUDGET,
    STREAM_SUPPORT,
    SubsetWitness,
    properness_witness_from_links,
)

MAX_BUDGET_PAIRS = 12
MAX_ENUM_PAIRS = 4


def check_stream_support(cfg: NetworkConfig, collect_all: bool = False):
    """Per-pair check min(M_k, N_k) >= d_k.

    Returns None when every pair passes, else the first violating pair's
    witness (or all of them as a tuple with ``collect_all``).
    """
    found = []
    for k in range(1, cfg.K + 1):
        support = min(cfg.M(k), cfg.N(k))
        if support < cfg.d(k):
            w = SubsetWitness(
                kind=STREAM_SUPPORT, lhs=support, rhs=cfg.d(k), pair=k
            )
            if not collect_all:
                return w
            found.append(w)
    return tuple(found) if collect_all else None


def _subset_tables(cfg: NetworkConfig):
    K = cfg.K
    size = 1 << K
    sum_m = np.zeros(size, dtype=np.int64)
    sum_n = np.zeros(size, dtype=np.int64)
    sum_d = np.zeros(size, dtype=np.int64)
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length()  # 1-based pair index
        rest = mask ^ low
        sum_m[mask] = sum_m[rest] + cfg.M(i)
        sum_n[mask] = sum_n[rest] + cfg.N(i)
        sum_d[mask] = sum_d[rest] + cfg.d(i)
    return sum_m, sum_n, sum_d


def _bits(mask: int) -> tuple:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def check_antenna_budget(cfg: NetworkConfig, collect_all: bool = False):
    """Antenna budget over every realizable (transmit, receive) group pair.

    A group pair (T, R) is realizable when some nonempty set of cross
    links has transmitter projection exactly T and receiver projection
    exactly R: both nonempty, R not a singleton contained in T, and T not
    a singleton contained in R. Only projections enter the inequality, so
    scanning group pairs instead of link subsets loses nothing. The scan
    is 4^K and refuses K > 12.
    """
    K = cfg.K
    if K > MAX_BUDGET_PAIRS:
        raise ValueError(
            f"antenna budget enumeration is capped at K = {MAX_BUDGET_PAIRS}; "
            "rely on the properness check and the rank test for larger networks"
        )
    sum_m, sum_n, sum_d = _subset_tables(cfg)
    size = 1 << K
    r_all = np.arange(1, size, dtype=np.int64)
    singleton = np.full(size, 0, dtype=np.int64)
    for i in range(K):
        singleton[1 << i] = i + 1  # 1-based index, 0 means "not a singleton"
    r_sing = singleton[r_all]

    found = []
    for t_mask in range(1, size):
        ok = np.ones(r_all.shape, dtype=bool)
        # exclude R = {x} with x in T
        is_sing = r_sing > 0
        in_t = ((t_mask >> (np.maximum(r_sing, 1) - 1)) & 1) == 1
        ok &= ~(is_sing & in_t)
        # exclude any R containing y when T = {y}
        y = singleton[t_mask]
        if y > 0:
            ok &= ((r_all >> (y - 1)) & 1) == 0
        lhs = np.maximum(sum_m[t_mask], sum_n[r_all])
        rhs = sum_d[t_mask | r_all]
        bad = ok & (lhs < rhs)
        if not bad.any():
            continue
        for idx in np.flatnonzero(bad):
            r_mask = int(r_all[idx])
            tx = _bits(t_mask)
            rx = _bits(r_mask)
            links = frozenset((k, j) for k in rx for j in tx if k != j)
            w = SubsetWitness(
                kind=ANTENNA_BUDGET,
                lhs=int(lhs[idx]),
                rhs=int(rhs[idx]),
                tx_set=frozenset(tx),
                rx_set=frozenset(rx),
                links=links,
            )
            if not collect_all:
                return w
            found.append(w)
    return tuple(found) if collect_all else None


def enumerate_properness_violation(cfg: NetworkConfig, collect_all: bool = False):
    """Exhaustive properness scan over all link subsets. K <= 4 only.

    Ground truth for cross-checking the transfer engine: walks
    all 2^(K(K-1)) subsets with bitmask lookup tables. Returns None when
    every subset is proper, else the first violating subset's witness.
    """
    if cfg.K > MAX_ENUM_PAIRS:
        raise ValueError(
            f"exhaustive link-subset scan is exponential; capped at K = {MAX_ENUM_PAIRS}"
        )
    pairs = tuple(cfg.cross_pairs())
    n = len(pairs)
    if n == 0:
        return () if collect_all else None
    size = 1 << n
    masks = np.arange(size, dtype=np.int64)
    rx_mask = np.zeros(size, dtype=np.int64)
    tx_mask = np.zeros(size, dtype=np.int64)
    rhs = np.zeros(size, dtype=np.int64)
    for i, (k, j) in enumerate(pairs):
        sel = ((masks >> i) & 1) == 1
        rx_mask[sel] |= 1 << (k - 1)
        tx_mask[sel] |= 1 << (j - 1)
        rhs[sel] += cfg.d(k) * cfg.d(j)

    K = cfg.K
    tab_rx = np.zeros(1 << K, dtype=np.int64)
    tab_tx = np.zeros(1 << K, dtype=np.int64)
    for mask in range(1, 1 << K):
        low = mask & -mask
        i = low.bit_length()
        rest = mask ^ low
        tab_rx[mask] = tab_rx[rest] + cfg.d(i) * (cfg.N(i) - cfg.d(i))
        tab_tx[mask] = tab_tx[rest] + cfg.d(i) * (cfg.M(i) - cfg.d(i))

    lhs = tab_rx[rx_mask] + tab_tx[tx_mask]
    bad = lhs < rhs
    bad[0] = False
    hits = np.flatnonzero(bad)
    if hits.size == 0:
        return () if collect_all else None

    def build(mask: int) -> SubsetWitness:
        links = tuple(pairs[i] for i in range(n) if (mask >> i) & 1)
        return properness_witness_from_links(cfg, links)

    if not collect_all:
        return build(int(hits[0]))
    return tuple(build(int(m)) for m in hits)


def check_properness(cfg: NetworkConfig):
    """Properness over all link subsets, decided by one transfer run.

    A capacity-respecting constraint allocation exists exactly when every
    link subset is proper, so the transfer engine decides properness in
    polynomial time; the node set of a stuck tree is unwound into a
    concrete violated subset. Returns None when proper, else the witness.
    """
    _, witness = flow_feasibility(cfg)
    return witness


STREAM_CHECK = "stream_support"
BUDGET_CHECK = "antenna_budget"
PROPERNESS_CHECK = "properness"


@dataclass(frozen=True)
class NecessaryReport:
    """Outcome of the chained necessary checks.

    ``witness`` carries the first violation (None when all pass);
    ``witnesses`` is filled by ``collect_all``. ``skipped`` lists checks
    not run, e.g. the antenna budget beyond K = 12 or the properness check
    on a configuration that already fails stream support.
    """

    passed: bool
    witness: SubsetWitness | None
    checks: tuple
    skipped: tuple
    witnesses: tuple = ()

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "checks": list(self.checks),
            "skipped": list(self.skipped),
        }


def necessary_verdict(cfg: NetworkConfig, collect_all: bool = False) -> NecessaryReport:
    """Run stream support, antenna budget, then properness, in that order.

    Stops at the first violation unless ``collect_all``. The properness
    check is skipped for configurations that fail stream support (its
    capacities would be negative).
    """
    checks = []
    skipped = []
    witnesses = []
    first = None

    checks.append(STREAM_CHECK)
    res = check_stream_support(cfg, collect_all=collect_all)
    stream_failed = bool(res) if collect_all else res is not None
    if collect_all:
        witnesses.extend(res)
    elif res is not None:
        skipped = [BUDGET_CHECK, PROPERNESS_CHECK]
        return NecessaryReport(False, res, tuple(checks), tuple(skipped))

    if cfg.K > MAX_BUDGET_PAIRS:
        skipped.append(BUDGET_CHECK)
    else:
        checks.append(BUDGET_CHECK)
        res = check_antenna_budget(cfg, collect_all=collect_all)
        if collect_all:
            witnesses.extend(res)
        elif res is not None:
            skipped.append(PROPERNESS_CHECK)
            return NecessaryReport(False, res, tuple(checks), tuple(skipped))

    if stream_failed:
        skipped.append(PROPERNESS_CHECK)
    else:
        checks.append(PROPERNESS_CHECK)
        res = check_properness(cfg)
        if res is not None:
            if not collect_all:
                return NecessaryReport(False, res, tuple(checks), tuple(skipped))
            witnesses.append(res)

    if witnesses:
        first = witnesses[0]
    return NecessaryReport(
        passed=first is None,
        witness=first,
        checks=tuple(checks),
        skipped=tuple(skipped),
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedForm:
    """Verdict of a closed-form family test.

    ``applicable`` says whether the configuration belongs to the family at
    all; only then is ``feasible`` meaningful. ``margin`` carries the
    family's decision quantity where there is a single number (for the
    symmetric family, M + N - (K + 1) d).
    """

    family: str
    applicable: bool
    feasible: bool | None = None
    margin: int | None = None
    reason: str = ""
    witness: SubsetWitness | None = None

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "applicable": self.applicable,
            "feasible": self.feasible,
            "margin": self.margin,
            "reason": self.reason,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


def symmetric_feasible(cfg: NetworkConfig) -> ClosedForm:
    """Closed form for fully symmetric networks.

    Applies when all pairs share (M, N, d) and min(M, N) >= 2d; then the
    network is feasible exactly when M + N - (K + 1) d >= 0. The margin is
    also the slack of the properness inequality on the full link set
    divided by d, so an infeasible verdict ships the full-set witness.
    """
    if not cfg.is_symmetric():
        return ClosedForm("symmetric", False, reason="pairs are not identical")
    M, N, d = cfg.M(1), cfg.N(1), cfg.d(1)
    if min(M, N) < 2 * d:
        return ClosedForm("symmetric", False, reason="needs min(M, N) >= 2d")
    margin = M + N - (cfg.K + 1) * d
    if margin >= 0:
        return ClosedForm("symmetric", True, feasible=True, margin=margin)
    witness = properness_witness_from_links(cfg, tuple(cfg.cross_pairs()))
    if not witness.holds(cfg):
        raise RuntimeError("negative symmetric margin must violate properness")
    return ClosedForm("symmetric", True, feasible=False, margin=margin, witness=witness)


def divisible_feasible(cfg: NetworkConfig) -> ClosedForm:
    """Closed form for equal-stream networks with divisible antennas.

    Applies when every pair carries the same stream count d and d divides
    every N_k (or every M_k). Properness is then sufficient as well as
    necessary, and one bundled transfer run decides it: bundles of d
    constraints, each pinned to one stream on the divisible side, against
    per-stream capacities (N_k - d) / d there and per-index capacities on
    the other side.
    """
    ds = {cfg.d(k) for k in range(1, cfg.K + 1)}
    if len(ds) != 1:
        return ClosedForm("divisible", False, reason="stream counts differ")
    d = ds.pop()
    if not validate_config(cfg).admissible:
        return ClosedForm("divisible", False, reason="not stream-admissible")
    div_n = all(cfg.N(k) % d == 0 for k in range(1, cfg.K + 1))
    div_m = all(cfg.M(k) % d == 0 for k in range(1, cfg.K + 1))
    if not div_n and not div_m:
        return ClosedForm(
            "divisible", False, reason="d divides neither all N_k nor all M_k"
        )
    assign, cut_cells = _flow_solve(_bundled_instance(cfg, d, over_q=div_n))
    if assign is not None:
        return ClosedForm("divisible", True, feasible=True)
    witness = _witness_from_tree(cfg, cut_cells)
    return ClosedForm("divisible", True, feasible=False, witness=witness)


# ---------------------------------------------------------------------------
# scaling probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingReport:
    """Rank verdicts of a configuration and its c-fold scaled copy.

    Scaling every (M, N, d) by c multiplies both the constraint and
    variable counts by c^2 and preserves feasibility, so ``agree`` is
    expected to hold whenever the trials are conclusive.
    """

    c: int
    base: RankVerdict
    scaled: RankVerdict
    dims_consistent: bool

    @property
    def agree(self) -> bool:
        return self.base.full_row_rank == self.scaled.full_row_rank

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "base": self.base.to_dict(),
            "scaled": self.scaled.to_dict(),
            "dims_consistent": self.dims_consistent,
            "agree": self.agree,
        }


def scaling_check(
    cfg: NetworkConfig,
    c: int,
    mode: str = "gf",
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> ScalingReport:
    """Rank-test a configuration and its c-fold copy side by side."""
    scaled_cfg = scale_config(cfg, c)
    base = generic_full_row_rank(cfg, trials=trials, mode=mode, seed=seed, p=p)
    scaled = generic_full_row_rank(scaled_cfg, trials=trials, mode=mode, seed=seed, p=p)
    c0, v0 = system_shape(cfg)
    c1, v1 = system_shape(scaled_cfg)
    dims = c1 == c * c * c0 and v1 == c * c * v0
    return ScalingReport(c=c, base=base, scaled=scaled, dims_consistent=dims)
