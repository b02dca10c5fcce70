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
violated instance. The antenna budget is decided at every K by a dynamic
program over the pairs, not by enumerating the 4^K group pairs.
Properness is decided by the transfer engine
(:func:`~iafeas.allocation.flow_feasibility`), which this module never
runs. :func:`~iafeas.report.necessary_verdict` chains the three. The
module also houses two closed-form feasibility families: fully symmetric
networks, and equal-stream networks with divisible antenna counts. On the
second family properness is sufficient as well as necessary, so its closed
form reads the verdict of a properness run that the caller made; its
domain test, :func:`bundle_axis`, also picks the axis of the bundled
transfer run.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

from .config import NetworkConfig, validate_config
from .witnesses import (
    ANTENNA_BUDGET,
    STREAM_SUPPORT,
    SubsetWitness,
    properness_witness_from_links,
)


def check_stream_support(cfg: NetworkConfig):
    """Per-pair check min(M_k, N_k) >= d_k.

    Returns None when every pair passes, else the first violating pair's
    witness.
    """
    bad = validate_config(cfg)
    if not bad:
        return None
    return SubsetWitness.of(cfg, STREAM_SUPPORT, pair=bad[0])


# A pair joins the transmit group T, the receive group R, both or neither;
# a choice is the pair (in T, in R).
_NONE, _TX, _RX, _BOTH = (0, 0), (1, 0), (0, 1), (1, 1)

# DP states: which of T and R hold a pair so far, and whether both hold
# exactly the same single pair. Only T = R = {i} must be ruled out to keep
# the first violation realizable (see check_antenna_budget).
_EMPTY, _T_ONLY, _R_ONLY, _BOTH_SIDES, _SAME_PAIR = range(5)
_START = {_EMPTY: [(0, 0)]}

# _NEXT[choice][state]: the state after a pair takes the choice.
_NEXT = {
    _NONE: tuple(range(5)),
    _TX: (_T_ONLY, _T_ONLY, _BOTH_SIDES, _BOTH_SIDES, _BOTH_SIDES),
    _RX: (_R_ONLY, _BOTH_SIDES, _R_ONLY, _BOTH_SIDES, _BOTH_SIDES),
    _BOTH: (_SAME_PAIR, _BOTH_SIDES, _BOTH_SIDES, _BOTH_SIDES, _BOTH_SIDES),
}


def _join(p: int, q: int) -> int:
    """State of the union of two disjoint ranges of pairs."""
    if q == _EMPTY:
        return p
    if p == _EMPTY or (p == q and p in (_T_ONLY, _R_ONLY)):
        return q
    return _BOTH_SIDES


# _COMPLETE[p][q]: whether a prefix in state p and a suffix in state q
# together form a group pair that may carry a violation.
_COMPLETE = tuple(
    tuple(_join(p, q) == _BOTH_SIDES for q in range(5)) for p in range(5)
)


def _extend(front: dict, pair, choices, bound: int) -> dict:
    """Add one pair, (M, N, d), to every state of ``front`` under ``choices``.

    A front maps a DP state to its Pareto-minimal points (x, y),
    x = M(T) - d(T u R) and y = N(R) - d(T u R), sorted by x ascending (so
    y descending). Points with x or y at or above ``bound`` cannot turn
    negative by the pairs still to come and are dropped.
    """
    M, N, d = pair
    moves = []
    for in_t, in_r in choices:
        cost = d if in_t or in_r else 0
        moves.append((_NEXT[in_t, in_r], M * in_t - cost, N * in_r - cost))
    grown: dict = {}
    for state, points in front.items():
        for nxt, dx, dy in moves:
            out = grown.setdefault(nxt[state], [])
            for x, y in points:
                x += dx
                y += dy
                if x < bound and y < bound:
                    out.append((x, y))
    front = {}
    for state, points in grown.items():
        if len(points) > 1:
            points.sort()
            kept = [points[0]]
            for point in points:
                if point[1] < kept[-1][1]:
                    kept.append(point)
            points = kept
        if points:
            front[state] = points
    return front


def _meets(prefix: dict, suffix: dict) -> bool:
    """True when some union of a prefix and a suffix point is a group pair
    with x < 0 and y < 0."""
    for p, points in prefix.items():
        complete = _COMPLETE[p]
        for q, tail in suffix.items():
            if not complete[q]:
                continue
            for qx, qy in tail:
                i = bisect_left(points, -qx, key=itemgetter(0))
                if i and points[i - 1][1] < -qy:
                    return True
    return False


def _smallest_bits(pairs, options):
    """Smallest bit vector, pair K most significant, that admits a violation.

    ``options[k - 1]`` holds the choices pair k may take with its bit clear
    and with it set. A forward pass stores the prefix fronts and stops at
    the first prefix with a violation, once every later pair may stay out
    of both groups with its bit clear. Then the bits are fixed from pair K
    down: a bit stays clear when the stored prefix front still meets the
    decided suffix. Returns None when no choice admits a violation.
    """
    K = len(pairs)
    # below[k]: the most the streams of pairs 1..k can lower x or y
    below = [0]
    for _, _, d in pairs:
        below.append(below[-1] + d)
    floor = max(
        (k for k, (clear, _) in enumerate(options, 1) if _NONE not in clear),
        default=0,
    )
    fronts = [_START]
    for k in range(1, K + 1):
        clear, set_ = options[k - 1]
        bound = below[K] - below[k]
        fronts.append(_extend(fronts[-1], pairs[k - 1], clear + set_, bound))
        if k >= floor and _meets(fronts[-1], _START):
            break
    else:
        return None
    stop = len(fronts) - 1
    bits = [0] * K
    suffix = _START
    for k in range(K, 0, -1):
        clear, set_ = options[k - 1]
        zero = _extend(suffix, pairs[k - 1], clear, below[k - 1])
        if k > stop or _meets(fronts[k - 1], zero):
            suffix = zero
        else:
            bits[k - 1] = 1
            suffix = _extend(suffix, pairs[k - 1], set_, below[k - 1])
    return bits


def check_antenna_budget(cfg: NetworkConfig):
    """Antenna budget over every realizable (transmit, receive) group pair.

    A group pair (T, R) is realizable when some nonempty set of cross
    links has transmitter projection exactly T and receiver projection
    exactly R: both nonempty, R not a singleton contained in T, and T not
    a singleton contained in R. Only projections enter the inequality, so
    checking group pairs instead of link subsets loses nothing. It is
    violated when x = M(T) - d(T u R) < 0 and y = N(R) - d(T u R) < 0.

    Returns None when every realizable group pair passes, else the
    witness of the first violation in (T mask, R mask) order, pair 1 the
    lowest bit. Among all nonempty group pairs other than T = R = {i},
    that first violation is realizable: for T = {i} inside a larger R,
    dropping i from R keeps the union and lowers y, and for R = {x}
    inside a larger T, dropping x from T keeps the union and lowers x;
    either way an earlier violation would exist. This rule for which group
    pairs are realizable assumes that every link k != j exists; a network
    with absent links must extend the rule or skip the check.

    A dynamic program over the pairs decides this at every K: each pair
    joins T, R, both or neither, and each of five states (which groups
    are nonempty, and whether T = R = {i}) keeps the Pareto front of
    (x, y). A front holds at most one point per value of x, so a pass
    costs O(K (sum M + sum d)). The smallest T is then fixed bit by bit
    against the stored prefix fronts, and the smallest R for that T the
    same way.
    """
    pairs = [(p.M, p.N, p.d) for p in cfg.pairs]
    t_bits = _smallest_bits(pairs, [((_NONE, _RX), (_TX, _BOTH))] * cfg.K)
    if t_bits is None:
        return None
    r_bits = _smallest_bits(pairs, [(((t, 0),), ((t, 1),)) for t in t_bits])
    tx = frozenset(k for k, bit in enumerate(t_bits, 1) if bit)
    rx = frozenset(k for k, bit in enumerate(r_bits, 1) if bit)
    return SubsetWitness.of(
        cfg, ANTENNA_BUDGET, tx_set=tx, rx_set=rx,
        links=frozenset((k, j) for k, j in cfg.cross_pairs() if k in rx and j in tx),
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


def bundle_axis(cfg: NetworkConfig) -> tuple:
    """The divisible family's domain test: (axis, reason).

    Inside the family, where every pair carries the same stream count d,
    every stream fits and d divides every N_k (axis "q") or else every M_k
    (axis "p"), it returns (axis, ""); outside it, ("", why not).
    """
    ds = {pair.d for pair in cfg.pairs}
    if len(ds) != 1:
        return "", "stream counts differ"
    d = ds.pop()
    if validate_config(cfg):
        return "", "not stream-admissible"
    if all(pair.N % d == 0 for pair in cfg.pairs):
        return "q", ""
    if all(pair.M % d == 0 for pair in cfg.pairs):
        return "p", ""
    return "", "d divides neither all N_k nor all M_k"


def divisible_feasible(cfg: NetworkConfig, properness) -> ClosedForm:
    """Closed form for equal-stream networks with divisible antennas.

    Applies when every pair carries the same stream count d and d divides
    every N_k (or every M_k); see :func:`bundle_axis`. Properness is then
    sufficient as well as necessary, so the properness run decides it.
    ``properness`` is the witness of that run, as
    :func:`~iafeas.allocation.flow_feasibility` makes it: None when the
    run balanced, else a properness violation, which the infeasible
    verdict ships.
    """
    _, reason = bundle_axis(cfg)
    if reason:
        return ClosedForm("divisible", False, reason=reason)
    if properness is None:
        return ClosedForm("divisible", True, feasible=True)
    return ClosedForm("divisible", True, feasible=False, witness=properness)
