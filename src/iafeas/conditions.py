"""Necessary feasibility conditions and closed-form families.

Three counting conditions are necessary for alignment feasibility:

* stream support: every pair needs min(M_k, N_k) >= d_k;
* antenna budget: for any transmitter group T and receiver group R that
  some link subset can induce, max(sum_T M_j, sum_R N_k) must cover the
  streams of everyone involved;
* properness: for every set of cross links, the free variables of the
  involved transceivers must outnumber the scalar constraints the links
  impose.

The first two checks live here and return ``None`` when they pass,
otherwise a :class:`~iafeas.witnesses.SubsetWitness` pinpointing a
violated instance. Properness is decided by the transfer engine
(:func:`~iafeas.allocation.flow_feasibility`); the exhaustive link-subset
scan here is its small-K oracle. :func:`~iafeas.report.necessary_verdict`
chains the three. The module also houses two closed-form feasibility
families (fully symmetric networks and equal-stream networks with
divisible antenna counts) and a scaling probe that compares a
configuration's rank verdict against its c-fold copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import run_ptt_symmetric
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


def check_stream_support(cfg: NetworkConfig):
    """Per-pair check min(M_k, N_k) >= d_k.

    Returns None when every pair passes, else the first violating pair's
    witness.
    """
    for k in range(1, cfg.K + 1):
        support = min(cfg.M(k), cfg.N(k))
        if support < cfg.d(k):
            return SubsetWitness(
                kind=STREAM_SUPPORT, lhs=support, rhs=cfg.d(k), pair=k
            )
    return None


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


def check_antenna_budget(cfg: NetworkConfig):
    """Antenna budget over every realizable (transmit, receive) group pair.

    A group pair (T, R) is realizable when some nonempty set of cross
    links has transmitter projection exactly T and receiver projection
    exactly R: both nonempty, R not a singleton contained in T, and T not
    a singleton contained in R. Only projections enter the inequality, so
    scanning group pairs instead of link subsets loses nothing. Returns
    None when every group pair passes, else the first violation's witness.
    The scan is 4^K and refuses K > 12.
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
        bad = np.flatnonzero(ok & (lhs < rhs))
        if bad.size == 0:
            continue
        idx = bad[0]
        tx = _bits(t_mask)
        rx = _bits(int(r_all[idx]))
        return SubsetWitness(
            kind=ANTENNA_BUDGET,
            lhs=int(lhs[idx]),
            rhs=int(rhs[idx]),
            tx_set=frozenset(tx),
            rx_set=frozenset(rx),
            links=frozenset((k, j) for k in rx for j in tx if k != j),
        )
    return None


def enumerate_properness_violation(cfg: NetworkConfig):
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
        return None
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
        return None
    mask = int(hits[0])
    links = tuple(pairs[i] for i in range(n) if (mask >> i) & 1)
    return properness_witness_from_links(cfg, links)


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
    necessary, and one bundled transfer run from the all-receive start
    (:func:`~iafeas.allocation.run_ptt_symmetric` with ``seed=None``)
    decides it: it balances exactly when the plain properness run does,
    and a stuck run's witness is a properness violation.
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
    run = run_ptt_symmetric(cfg, seed=None)
    if run.balanced:
        return ClosedForm("divisible", True, feasible=True)
    return ClosedForm("divisible", True, feasible=False, witness=run.witness)


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
