"""Constraint allocation: who absorbs each alignment constraint.

Every scalar constraint (k, j, p, q) can be cancelled on the receive side
(using the free variables of receive stream (k, p)) or on the transmit side
(stream (j, q)). An allocation gives each constraint to exactly one side,
which is the paper's c^t_kjpq + c^r_kjpq = 1. Stream (k, p) can absorb at
most N_k - d_k constraints and stream (j, q) at most M_j - d_j, and an
allocation meeting those caps exists exactly when the properness counting
condition holds. If additionally the assignment is uniform across
transmit streams (or uniform across receive streams), the allocation
certifies almost-sure solvability of the alignment system.

One engine finds allocations: it rebalances a starting allocation by
moving constraints along pressure-transfer trees, one unit at a time,
either reaching a balanced state or getting stuck in a tree whose node
set yields a witness.

* :func:`flow_feasibility` runs it from the all-receive start to decide
  whether the caps can be met at all, which is the properness decision;
* :func:`run_ptt` runs it from a given allocation;
* :func:`run_ptt_symmetric` runs it on bundles of d constraints at once
  from the all-receive start, preserving stream uniformity on the
  divisible family (equal stream counts, d dividing every N_k or every
  M_k);
* :func:`report_allocation` picks the allocation that ``check`` reports
  and ``alloc`` prints.

Every start and every choice of the engine is fixed (lowest cell first),
so a run gives the same allocation in every process.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from itertools import product

from .conditions import bundle_axis
from .config import NetworkConfig, validate_config
from .witnesses import SubsetWitness, properness_witness_from_cells


# ---------------------------------------------------------------------------
# allocation policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllocationPolicy:
    """One side per constraint: c^t + c^r = 1 by construction.

    ``sides[quad]`` is "r" when constraint ``quad = (k, j, p, q)`` is
    absorbed by receive stream (k, p) (c^r = 1) and "t" when transmit
    stream (j, q) takes it (c^t = 1). The map is the transfer engine's own
    state; a map from elsewhere enters through
    :func:`allocation_from_json_dict`, which checks it.
    """

    cfg: NetworkConfig
    sides: dict

    @classmethod
    def all_rx(cls, cfg: NetworkConfig) -> "AllocationPolicy":
        """Every constraint on the receive side."""
        return cls(cfg=cfg, sides=dict.fromkeys(cfg.quads(), "r"))

    def to_json_dict(self) -> dict:
        """Serialize as the allocation JSON map {"k,j,p,q": "r" | "t"}."""
        return {
            ",".join(str(i) for i in quad): self.sides[quad]
            for quad in self.cfg.quads()
        }


def allocation_from_json_dict(cfg: NetworkConfig, obj) -> AllocationPolicy:
    """Parse the allocation JSON map, insisting on exact coverage."""
    if not isinstance(obj, dict):
        raise ValueError("allocation must be a JSON object")
    sides = {}
    for key, side in obj.items():
        parts = key.split(",")
        if len(parts) != 4:
            raise ValueError(f"allocation key {key!r} is not 'k,j,p,q'")
        try:
            quad = tuple(int(s) for s in parts)
        except ValueError:
            raise ValueError(f"allocation key {key!r} has non-integer fields") from None
        if side not in ("r", "t"):
            raise ValueError(f"allocation value for {key!r} must be 'r' or 't'")
        sides[quad] = side
    expected = set(cfg.quads())
    if set(sides) != expected:
        missing = sorted(expected - set(sides))
        extra = sorted(set(sides) - expected)
        raise ValueError(
            f"allocation does not cover the configuration exactly "
            f"(missing {missing}, extra {extra})"
        )
    return AllocationPolicy(cfg, {quad: sides[quad] for quad in cfg.quads()})


# ---------------------------------------------------------------------------
# pressures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PressureState:
    """Slack of every stream: capacity minus absorbed constraints.

    ``p_r[(k, p)] = N_k - d_k - load``, ``p_t[(j, q)] = M_j - d_j - load``.
    Negative pressure marks an overloaded stream. The total over all
    streams is invariant under reallocation: moving a constraint lowers
    one pressure and raises another.
    """

    p_t: dict
    p_r: dict

    def total(self) -> int:
        return sum(self.p_t.values()) + sum(self.p_r.values())

    def lowest(self) -> int:
        return min(list(self.p_t.values()) + list(self.p_r.values()))

    def all_nonnegative(self) -> bool:
        return self.lowest() >= 0

    def to_dict(self) -> dict:
        return {
            "t": {f"{j},{q}": v for (j, q), v in sorted(self.p_t.items())},
            "r": {f"{k},{p}": v for (k, p), v in sorted(self.p_r.items())},
        }


def pressures(cfg: NetworkConfig, alloc: AllocationPolicy) -> PressureState:
    """Compute every stream's pressure under an allocation."""
    p_r = {}
    p_t = {}
    for k, pair in enumerate(cfg.pairs, 1):
        for s in range(1, pair.d + 1):
            p_r[(k, s)] = pair.N - pair.d
            p_t[(k, s)] = pair.M - pair.d
    for (k, j, p, q), side in alloc.sides.items():
        if side == "r":
            p_r[(k, p)] -= 1
        else:
            p_t[(j, q)] -= 1
    return PressureState(p_t=p_t, p_r=p_r)


# ---------------------------------------------------------------------------
# the transfer-tree engine
#
# The engine is written against an abstract instance so that the plain
# (one item per constraint) and bundled (one item per d constraints)
# variants share every line of tree logic. An item is a constraint quad
# (k, j, p, q); a bundle over q is the item (k, j, p, 0) and a bundle over
# p the item (k, j, 0, q). A cell is ("r", k, p) or ("t", j, q); q == 0
# stands for "all transmit streams of j", and similarly p == 0 on the
# receive side. The engine sees only their numbers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Instance:
    cells: tuple  # cell number -> cell, in sorted order
    caps: list  # cell number -> capacity
    ends: list  # item number -> (r cell number, t cell number), in item order


def _instance(cfg: NetworkConfig, bundle: str) -> _Instance:
    """The engine's instance, plain (``bundle == ""``) or bundled.

    Plain cells carry the per-stream caps N_k - d_k and M_j - d_j. Bundled
    over q, item (k, j, p, 0) stands for the constraints (k, j, p, q) of
    every transmit stream q: it loads receive cell ("r", k, p), of capacity
    (N_k - d) / d in bundles, or the whole transmitter ("t", j, 0), of
    capacity M_j - d. Bundled over p is the mirror image. The caller makes
    sure d divides the antenna counts of the split side.

    Cells are numbered in sorted order: the receive cells, pair by pair and
    stream by stream, then the transmit cells. Items come link by link in
    ``cfg.cross_pairs()`` order, then by p, then by q, which for
    ``bundle == ""`` is the order of ``cfg.quads()``; item (k, j, p, q)
    ends at receiver k's first cell plus p - 1 and transmitter j's first
    cell plus q - 1 (plus 0 on a merged side).
    """
    if validate_config(cfg):
        # a stream with d_k > min(M_k, N_k) has a negative cap, which no
        # allocation meets and no link subset need expose
        raise ValueError("allocation needs a stream-admissible network")
    cells, caps, first = [], [], {}
    for side, merged in (("r", bundle == "p"), ("t", bundle == "q")):
        for k, pair in enumerate(cfg.pairs, 1):
            cap = (pair.N if side == "r" else pair.M) - pair.d
            streams = (0,) if merged else range(1, pair.d + 1)
            first[side, k] = len(cells)
            cells += [(side, k, s) for s in streams]
            caps += [cap // pair.d if bundle and not merged else cap] * len(streams)
    d = [0] + [pair.d for pair in cfg.pairs]
    ends = []
    for k, j in cfg.cross_pairs():
        r, t = first["r", k], first["t", j]
        ends += product(
            range(r, r + (1 if bundle == "p" else d[k])),
            range(t, t + (1 if bundle == "q" else d[j])),
        )
    return _Instance(cells=tuple(cells), caps=caps, ends=ends)


@dataclass(frozen=True)
class PressureTree:
    """A stuck transfer tree: the certificate behind a Case2 verdict.

    Every node is a stream cell at non-positive pressure, the root is
    strictly negative, and no constraint assigned to a node leads outside
    the node set, so the combined capacity of the nodes cannot absorb the
    constraints trapped among them.
    """

    root: tuple
    nodes: tuple
    pressures: dict

    def to_dict(self) -> dict:
        return {
            "root": list(self.root),
            "nodes": [list(n) for n in self.nodes],
            "pressures": {str(list(n)): self.pressures[n] for n in self.nodes},
        }


class PttDefect(RuntimeError):
    """Internal invariant violation in the transfer engine."""


def _run_transfer_engine(inst: _Instance, on_r: list):
    """Rebalance ``on_r`` in place. Returns (balanced, tree_or_None, transfers).

    ``on_r[i]`` is True while item i sits on its receive cell. Every choice
    is the lowest one. Roots are the overloaded cells, lowest first. A tree
    grows one level per round, scanning its nodes in the order they joined
    and each node's items in item order, so a cell joins under the first
    node and item that reach it. A drain moves one unit from the root to
    the lowest tree cell with slack and detaches the subtree below the
    flipped path.

    No step scans the whole tree or instance. Cells and items are numbered
    as in :func:`_instance`, so comparing numbers makes the choices that
    comparing the tuples would. ``held[c]`` lists the (item, other end)
    pairs of the items cell c absorbs, in item order, so a round visits
    only live items, and a flip moves one pair between two lists.
    ``reach[c]`` is a bitmask of those other ends and ``tree`` one of the
    tree's cells; a round skips a node with ``reach & ~tree == 0``. A flip
    sets the new holder's bit and clears none, so ``reach`` may hold cells
    that no live item leads to any more: a superset costs at most a scan
    that attaches nothing, and a node whose superset lies in the tree has
    no child to attach, so every choice stays. ``children`` mirrors
    ``parent``, so a detach walks only the detached subtree. ``slack`` is a
    heap of the tree cells with positive pressure, checked when they reach
    its top: a tree cell's pressure changes only when it is the drained
    target, which leaves the tree, so the top is the lowest such cell. Only
    a root gains pressure and only a cell with slack loses it, so the cells
    overloaded at the start are the roots.
    """
    cells, ends = inst.cells, inst.ends
    pressure = list(inst.caps)
    held = [[] for _ in cells]
    reach = [0] * len(cells)
    for i, (r, t) in enumerate(ends):
        cell, other = (r, t) if on_r[i] else (t, r)
        held[cell].append((i, other))
        reach[cell] |= 1 << other
        pressure[cell] -= 1

    overloaded = [c for c, v in enumerate(pressure) if v < 0]
    deficit = -sum(pressure[c] for c in overloaded)
    # Every transfer reduces the total deficit by one, so the loop count is
    # bounded; the guard only trips on an engine defect.
    round_guard = (deficit + 2) * (len(cells) + deficit + 2)
    transfers = 0
    rounds = 0

    for root in overloaded:
        # parent[c] < 0 marks a cell outside the tree
        parent = [-1] * len(cells)
        via = [-1] * len(cells)
        children = [[] for _ in cells]
        parent[root] = root
        tree = 1 << root
        order = [root]
        slack = []

        while True:
            rounds += 1
            if rounds > round_guard:
                raise PttDefect("transfer engine failed to terminate")

            # grow one level: follow the items each tree node absorbs
            grew = False
            for i in range(len(order)):
                node = order[i]
                if parent[node] < 0 or not reach[node] & ~tree:
                    continue
                for item, child in held[node]:
                    if parent[child] < 0:
                        parent[child] = node
                        via[child] = item
                        children[node].append(child)
                        order.append(child)
                        tree |= 1 << child
                        if pressure[child] > 0:
                            heapq.heappush(slack, child)
                        grew = True

            # drain: move one unit from the root to a positive node, then
            # detach everything below the flipped path
            drained = False
            while pressure[root] < 0:
                while slack and (parent[slack[0]] < 0 or pressure[slack[0]] <= 0):
                    heapq.heappop(slack)
                if not slack:
                    break
                cur = heapq.heappop(slack)
                while cur != root:
                    par, item = parent[cur], via[cur]
                    if ends[item][0 if on_r[item] else 1] != par:
                        raise PttDefect("tree edge lost its live constraint")
                    held[par].remove((item, cur))
                    bisect.insort(held[cur], (item, par))
                    reach[cur] |= 1 << par
                    on_r[item] = not on_r[item]
                    pressure[par] += 1
                    pressure[cur] -= 1
                    first, cur = cur, par
                transfers += 1
                drained = True
                children[root].remove(first)
                stack = [first]
                while stack:
                    cur = stack.pop()
                    stack.extend(children[cur])
                    children[cur] = []
                    parent[cur] = -1
                    tree ^= 1 << cur

            if pressure[root] >= 0 or not (grew or drained):
                break
        if pressure[root] < 0:
            break
    else:
        return True, None, transfers

    nodes = [c for c, par in enumerate(parent) if par >= 0]
    tree = PressureTree(
        root=cells[root],
        nodes=tuple(cells[c] for c in nodes),
        pressures={cells[c]: pressure[c] for c in nodes},
    )
    return False, tree, transfers


# ---------------------------------------------------------------------------
# public transfer runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PttResult:
    """Outcome of a transfer run.

    ``balanced`` is Case1: ``alloc`` holds the rebalanced policy with all
    pressures non-negative. Otherwise ``tree`` is the stuck tree and
    ``witness`` the properness violation extracted from its node set;
    ``alloc`` then holds the allocation state at the stall.
    """

    balanced: bool
    alloc: AllocationPolicy
    transfers: int
    tree: PressureTree | None = None
    witness: SubsetWitness | None = None


def _run(cfg: NetworkConfig, bundle: str, on_r: list | None) -> PttResult:
    """Run the engine from ``on_r`` (one bool per item, True on the receive
    side, rebalanced in place; None for the all-receive start) and give
    every constraint its item's side."""
    inst = _instance(cfg, bundle)
    if on_r is None:
        on_r = [True] * len(inst.ends)
    balanced, tree, transfers = _run_transfer_engine(inst, on_r)
    # a bundle's constraints share its side; every pair carries d streams
    d = cfg.pairs[0].d
    if bundle == "q":
        on_r = [on_r[i // d] for i in range(len(on_r) * d)]
    elif bundle == "p":
        on_r = [on_r[i // (d * d) * d + i % d] for i in range(len(on_r) * d)]
    sides = dict(zip(cfg.quads(), ["r" if r else "t" for r in on_r]))
    witness = None if balanced else _witness_from_tree(cfg, tree.nodes)
    return PttResult(balanced, AllocationPolicy(cfg, sides), transfers, tree, witness)


def _witness_from_tree(cfg: NetworkConfig, nodes) -> SubsetWitness:
    cells = {"r": set(), "t": set()}
    for side, idx, stream in nodes:
        streams = range(1, cfg.d(idx) + 1) if stream == 0 else (stream,)
        cells[side].update((idx, s) for s in streams)
    witness = properness_witness_from_cells(cfg, cells["r"], cells["t"])
    if witness is None:
        raise PttDefect("stuck tree did not yield a counting violation")
    return witness


def run_ptt(cfg: NetworkConfig, alloc: AllocationPolicy) -> PttResult:
    """Rebalance an allocation by pressure transfers.

    Starting from ``alloc``, repeatedly roots a tree at an overloaded
    stream, grows it along currently assigned constraints, and moves one
    constraint chain whenever the tree reaches a stream with slack. Ends
    balanced (Case1) or stuck (Case2) with a :class:`PressureTree` whose
    nodes certify a properness violation. Root and target choices are
    deterministic (lowest cell first). The engine works on a copy, so the
    input policy is not modified.
    """
    return _run(cfg, "", [alloc.sides[quad] == "r" for quad in cfg.quads()])


def run_ptt_symmetric(cfg: NetworkConfig) -> PttResult:
    """Transfer run that preserves stream uniformity.

    Needs the divisible family: every pair carries the same stream count d
    and d divides every N_k or every M_j. Constraints are moved in bundles
    of d: with d dividing every N_k the bundle (k, j, p, 0) spans all
    transmit streams q (the allocation stays uniform over q and receive
    pressures stay divisible by d); otherwise the mirrored bundle
    (k, j, 0, q) spans receive streams p. Balanced outcomes therefore satisfy
    the capacity caps and stream uniformity at once, which certifies
    solvability. Every bundle starts on the receive side, so for d = 1 it
    makes the transfers of :func:`flow_feasibility`'s run.
    """
    axis, reason = bundle_axis(cfg)
    if not axis:
        raise ValueError(f"bundled allocation needs the divisible family: {reason}")
    return _run(cfg, axis, None)


# ---------------------------------------------------------------------------
# deciding the caps
# ---------------------------------------------------------------------------


def flow_feasibility(cfg: NetworkConfig) -> PttResult:
    """Decide whether a capacity-respecting allocation exists.

    Runs the transfer engine from the all-receive start: the run balances
    exactly when such an allocation exists, and otherwise its witness is
    the properness violation extracted from the stuck tree. The start and
    every choice of the engine are fixed, so the answer is the same in
    every process.
    """
    return _run(cfg, "", None)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllocationReport:
    """Which of the certificate conditions an allocation meets.

    A sufficiency certificate needs complementarity (every constraint on
    exactly one side), which every :class:`AllocationPolicy` has by
    construction, the capacity caps on both sides, and stream uniformity in
    at least one direction.
    """

    rx_capacity_ok: bool
    tx_capacity_ok: bool
    uniform_over_q: bool
    uniform_over_p: bool
    rx_overloads: tuple
    tx_overloads: tuple

    @property
    def capacities_ok(self) -> bool:
        return self.rx_capacity_ok and self.tx_capacity_ok

    @property
    def stream_uniform(self) -> bool:
        return self.uniform_over_q or self.uniform_over_p

    @property
    def certificate(self) -> bool:
        return self.capacities_ok and self.stream_uniform

    def to_dict(self) -> dict:
        return {
            "rx_capacity_ok": self.rx_capacity_ok,
            "tx_capacity_ok": self.tx_capacity_ok,
            "uniform_over_q": self.uniform_over_q,
            "uniform_over_p": self.uniform_over_p,
            "rx_overloads": [list(x) for x in self.rx_overloads],
            "tx_overloads": [list(x) for x in self.tx_overloads],
        }


def verify_allocation(cfg: NetworkConfig, alloc: AllocationPolicy) -> AllocationReport:
    """Check both capacity caps and stream uniformity.

    An overload is (k, s, load, cap) for every stream whose pressure is
    negative. Uniform over q means each (k, j, p) puts all its constraints
    on one side, and uniform over p the same for each (k, j, q).
    """
    state = pressures(cfg, alloc)
    rx_over = tuple(
        (k, p, cfg.N(k) - cfg.d(k) - v, cfg.N(k) - cfg.d(k))
        for (k, p), v in state.p_r.items()
        if v < 0
    )
    tx_over = tuple(
        (j, q, cfg.M(j) - cfg.d(j) - v, cfg.M(j) - cfg.d(j))
        for (j, q), v in state.p_t.items()
        if v < 0
    )

    uniform_q = uniform_p = True
    over_q = {}
    over_p = {}
    for (k, j, p, q), side in alloc.sides.items():
        if over_q.setdefault((k, j, p), side) != side:
            uniform_q = False
        if over_p.setdefault((k, j, q), side) != side:
            uniform_p = False

    return AllocationReport(
        rx_capacity_ok=not rx_over,
        tx_capacity_ok=not tx_over,
        uniform_over_q=uniform_q,
        uniform_over_p=uniform_p,
        rx_overloads=rx_over,
        tx_overloads=tx_over,
    )


def report_allocation(cfg: NetworkConfig, run: PttResult | None = None, verify=verify_allocation):
    """The allocation ``check`` reports and ``alloc`` prints: (run, report, variant).

    The first try is ``run``, :func:`flow_feasibility`'s run, made here
    unless the caller's necessary chain made it. Where it balanced into no
    certificate on the divisible family, the bundled run takes its place,
    and ``variant`` turns from "plain" to "bundled". ``report`` is
    ``verify`` applied once to the returned allocation (None for a stuck
    run); the report hands in the name it looks up, where a tracer can
    wrap it.
    """
    if run is None:
        run = flow_feasibility(cfg)
    if not run.balanced:
        return run, None, "plain"
    report = verify(cfg, run.alloc)
    axis = "" if report.certificate else bundle_axis(cfg)[0]
    if not axis:
        return run, report, "plain"
    run = _run(cfg, axis, None)
    return run, verify(cfg, run.alloc), "bundled"
