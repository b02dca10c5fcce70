"""Constraint allocation: who absorbs each alignment constraint.

Every scalar constraint (k, j, p, q) can be cancelled on the receive side
(using the free variables of receive stream (k, p)) or on the transmit side
(stream (j, q)). An allocation assigns each constraint to one side. Stream
(k, p) can absorb at most N_k - d_k constraints and stream (j, q) at most
M_j - d_j, and an allocation meeting those caps exists exactly when the
properness counting condition holds. If additionally the assignment is
uniform across transmit streams (or uniform across receive streams), the
allocation certifies almost-sure solvability of the alignment system.

One engine finds allocations: it rebalances a starting allocation by
moving constraints along pressure-transfer trees, one unit at a time,
either reaching a balanced state or getting stuck in a tree whose node
set yields a witness.

* :func:`flow_feasibility` runs it from the all-receive start,
  deterministically, to decide whether the caps can be met at all, which
  is the properness decision;
* :func:`run_ptt` runs it from a given allocation;
* :func:`run_ptt_symmetric` runs it on bundles of d constraints at once,
  preserving stream uniformity for equal-stream networks whose antenna
  counts divide evenly; with ``seed=None`` it starts all-receive too.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig, validate_config
from .witnesses import SubsetWitness, properness_witness_from_cells

Quad = tuple


# ---------------------------------------------------------------------------
# allocation policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllocationPolicy:
    """One 0/1 assignment per constraint, receive side and transmit side.

    ``c_r[quad]`` is 1 when constraint ``quad = (k, j, p, q)`` is absorbed
    by receive stream (k, p); ``c_t[quad]`` when transmit stream (j, q)
    takes it. Well-formed policies have c_r + c_t = 1 on every constraint
    of the configuration; the checker reports violations rather than
    refusing to represent them.
    """

    cfg: NetworkConfig
    c_t: dict
    c_r: dict

    @classmethod
    def from_sides(cls, cfg: NetworkConfig, sides: dict) -> "AllocationPolicy":
        """Build from a map quad -> "r" | "t" covering every constraint."""
        c_t = {}
        c_r = {}
        for quad in cfg.quads():
            side = sides.get(quad)
            if side not in ("r", "t"):
                raise ValueError(f"no side for constraint {quad}")
            c_r[quad] = 1 if side == "r" else 0
            c_t[quad] = 1 - c_r[quad]
        if len(sides) != len(c_r):
            extra = set(sides) - set(c_r)
            raise ValueError(f"sides map has unknown constraints: {sorted(extra)}")
        return cls(cfg=cfg, c_t=c_t, c_r=c_r)

    @classmethod
    def all_rx(cls, cfg: NetworkConfig) -> "AllocationPolicy":
        """Every constraint on the receive side."""
        return cls.from_sides(cfg, {quad: "r" for quad in cfg.quads()})

    def side(self, quad) -> str:
        r = self.c_r.get(quad, 0)
        t = self.c_t.get(quad, 0)
        if r + t != 1:
            raise ValueError(f"constraint {quad} is not assigned to exactly one side")
        return "r" if r else "t"

    def sides(self) -> dict:
        return {quad: self.side(quad) for quad in self.cfg.quads()}

    def to_json_dict(self) -> dict:
        """Serialize as the allocation JSON map {"k,j,p,q": "r" | "t"}."""
        return {
            ",".join(str(i) for i in quad): self.side(quad)
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
    return AllocationPolicy.from_sides(cfg, sides)


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
    for k in range(1, cfg.K + 1):
        for p in range(1, cfg.d(k) + 1):
            p_r[(k, p)] = cfg.N(k) - cfg.d(k)
        for q in range(1, cfg.d(k) + 1):
            p_t[(k, q)] = cfg.M(k) - cfg.d(k)
    for quad in cfg.quads():
        k, j, p, q = quad
        if alloc.c_r.get(quad, 0):
            p_r[(k, p)] -= 1
        if alloc.c_t.get(quad, 0):
            p_t[(j, q)] -= 1
    return PressureState(p_t=p_t, p_r=p_r)


def init_allocation(
    cfg: NetworkConfig, seed: int = 0, symmetric: bool = False
) -> AllocationPolicy:
    """Random starting allocation, one fair coin per constraint.

    With ``symmetric=True`` the coin is tossed once per (k, j, p) and the
    outcome is copied across the transmit streams q, which keeps the start
    uniform over q. For single-stream networks the two modes consume the
    generator identically and produce the same policy.
    """
    rng = np.random.default_rng(seed)
    sides = {}
    for k, j in cfg.cross_pairs():
        for p in range(1, cfg.d(k) + 1):
            if symmetric:
                side = "r" if int(rng.integers(0, 2)) else "t"
                for q in range(1, cfg.d(j) + 1):
                    sides[(k, j, p, q)] = side
            else:
                for q in range(1, cfg.d(j) + 1):
                    sides[(k, j, p, q)] = "r" if int(rng.integers(0, 2)) else "t"
    return AllocationPolicy.from_sides(cfg, sides)


# ---------------------------------------------------------------------------
# the transfer-tree engine
#
# The engine is written against an abstract instance so that the plain
# (one item per constraint) and bundled (one item per d constraints)
# variants share every line of tree logic. A cell is ("r", k, p) or
# ("t", j, q); q == 0 stands for "all transmit streams of j" in the
# bundled variant, and similarly p == 0 on the receive side.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Instance:
    items: tuple
    ends: dict  # item -> (r_cell, t_cell)
    caps: dict  # cell -> capacity


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
    parent: dict
    edge_items: dict  # node -> the item connecting it to its parent
    pressures: dict

    def to_dict(self) -> dict:
        return {
            "root": list(self.root),
            "nodes": [list(n) for n in self.nodes],
            "pressures": {str(list(n)): self.pressures[n] for n in self.nodes},
        }


class PttDefect(RuntimeError):
    """Internal invariant violation in the transfer engine."""


def _run_transfer_engine(inst: _Instance, assign: dict, rng):
    """Rebalance ``assign`` in place. Returns (balanced, tree_or_None, transfers)."""
    pressure = dict(inst.caps)
    by_r = defaultdict(list)
    by_t = defaultdict(list)
    for item in inst.items:
        r_cell, t_cell = inst.ends[item]
        by_r[r_cell].append(item)
        by_t[t_cell].append(item)
        pressure[r_cell if assign[item] == "r" else t_cell] -= 1

    deficit = sum(-v for v in pressure.values() if v < 0)
    # Every transfer reduces the total deficit by one, so the loop count is
    # bounded; the guard only trips on an engine defect.
    round_guard = (deficit + 2) * (len(pressure) + deficit + 2)
    transfers = 0
    rounds = 0

    while True:
        negatives = sorted(c for c, v in pressure.items() if v < 0)
        if not negatives:
            return True, None, transfers
        if rng is None:
            root = negatives[0]
        else:
            root = negatives[int(rng.integers(len(negatives)))]

        parent = {root: None}
        via = {root: None}
        order = [root]

        while True:
            rounds += 1
            if rounds > round_guard:
                raise PttDefect("transfer engine failed to terminate")

            # grow one level: follow constraints assigned to a node's side
            grew = False
            for node in list(order):
                if node not in parent:
                    continue
                if node[0] == "r":
                    live = (it for it in by_r[node] if assign[it] == "r")
                    other = 1
                else:
                    live = (it for it in by_t[node] if assign[it] == "t")
                    other = 0
                for item in live:
                    child = inst.ends[item][other]
                    if child not in parent:
                        parent[child] = node
                        via[child] = item
                        order.append(child)
                        grew = True

            # drain: move one unit from the root to a positive node, then
            # detach everything below the flipped path
            drained = False
            while pressure[root] < 0:
                target = min(
                    (c for c in parent if c != root and pressure[c] > 0),
                    default=None,
                )
                if target is None:
                    break
                path = []
                cur = target
                while cur != root:
                    path.append((parent[cur], via[cur], cur))
                    cur = parent[cur]
                for par, item, _child in path:
                    r_cell, t_cell = inst.ends[item]
                    if assign[item] == "r":
                        if par != r_cell:
                            raise PttDefect("tree edge lost its live constraint")
                        assign[item] = "t"
                        pressure[r_cell] += 1
                        pressure[t_cell] -= 1
                    else:
                        if par != t_cell:
                            raise PttDefect("tree edge lost its live constraint")
                        assign[item] = "r"
                        pressure[t_cell] += 1
                        pressure[r_cell] -= 1
                transfers += 1
                drained = True
                first_child = path[-1][2]
                _detach(first_child, parent, via)

            if pressure[root] >= 0:
                break
            if not grew and not drained:
                tree_nodes = tuple(sorted(parent))
                tree = PressureTree(
                    root=root,
                    nodes=tree_nodes,
                    parent=dict(parent),
                    edge_items={n: via[n] for n in tree_nodes if via[n] is not None},
                    pressures={n: pressure[n] for n in tree_nodes},
                )
                return False, tree, transfers


def _detach(node, parent: dict, via: dict) -> None:
    """Remove ``node`` and its whole subtree from the tree maps."""
    children = defaultdict(list)
    for child, par in parent.items():
        children[par].append(child)
    stack = [node]
    while stack:
        cur = stack.pop()
        stack.extend(children[cur])
        del parent[cur]
        del via[cur]


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


def _require_admissible(cfg: NetworkConfig) -> None:
    # A stream with d_k > min(M_k, N_k) has a negative cap, which no
    # allocation meets and no link subset need expose.
    if not validate_config(cfg).admissible:
        raise ValueError("allocation needs a stream-admissible network")


def _plain_instance(cfg: NetworkConfig) -> _Instance:
    _require_admissible(cfg)
    items = tuple(cfg.quads())
    ends = {}
    caps = {}
    for k in range(1, cfg.K + 1):
        for p in range(1, cfg.d(k) + 1):
            caps[("r", k, p)] = cfg.N(k) - cfg.d(k)
        for q in range(1, cfg.d(k) + 1):
            caps[("t", k, q)] = cfg.M(k) - cfg.d(k)
    for quad in items:
        k, j, p, q = quad
        ends[quad] = (("r", k, p), ("t", j, q))
    return _Instance(items=items, ends=ends, caps=caps)


def _check_policy(cfg: NetworkConfig, alloc: AllocationPolicy) -> None:
    for quad in cfg.quads():
        if alloc.c_r.get(quad, 0) + alloc.c_t.get(quad, 0) != 1:
            raise ValueError(
                f"allocation must assign every constraint exactly once; "
                f"constraint {quad} is off"
            )


def run_ptt(cfg: NetworkConfig, alloc: AllocationPolicy, seed=None) -> PttResult:
    """Rebalance an allocation by pressure transfers.

    Starting from ``alloc`` (which must assign every constraint exactly
    once), repeatedly roots a tree at an overloaded stream, grows it along
    currently assigned constraints, and moves one constraint chain whenever
    the tree reaches a stream with slack. Ends balanced (Case1) or stuck
    (Case2) with a :class:`PressureTree` whose nodes certify a properness
    violation.

    With ``seed=None`` root and target choices are deterministic (lowest
    cell first); an integer seed randomizes the root order, which is handy
    for property tests. The input policy is not modified.
    """
    _check_policy(cfg, alloc)
    inst = _plain_instance(cfg)
    assign = {quad: alloc.side(quad) for quad in inst.items}
    rng = None if seed is None else np.random.default_rng(seed)
    balanced, tree, transfers = _run_transfer_engine(inst, assign, rng)
    out = AllocationPolicy.from_sides(cfg, assign)
    if balanced:
        return PttResult(balanced=True, alloc=out, transfers=transfers)
    witness = _witness_from_tree(cfg, tree.nodes)
    return PttResult(
        balanced=False, alloc=out, transfers=transfers, tree=tree, witness=witness
    )


def _witness_from_tree(cfg: NetworkConfig, nodes) -> SubsetWitness:
    rx_cells = set()
    tx_cells = set()
    for cell in nodes:
        side, idx, stream = cell
        if stream == 0:
            streams = range(1, cfg.d(idx) + 1)
        else:
            streams = (stream,)
        for s in streams:
            (rx_cells if side == "r" else tx_cells).add((idx, s))
    witness = properness_witness_from_cells(cfg, rx_cells, tx_cells)
    if witness is None:
        raise PttDefect("stuck tree did not yield a counting violation")
    return witness


def _bundled_instance(cfg: NetworkConfig, d: int, over_q: bool) -> _Instance:
    """Instance whose items are bundles of d constraints on one stream.

    With ``over_q`` item (k, j, p) stands for the constraints (k, j, p, q)
    of every transmit stream q: it loads receive cell ("r", k, p), of
    capacity (N_k - d) / d, or the whole transmitter ("t", j, 0), of
    capacity M_j - d. Otherwise item (k, j, q) is the mirror image between
    ("r", k, 0) and ("t", j, q). The caller makes sure d divides the
    antenna counts of the split side.
    """
    _require_admissible(cfg)
    items = []
    ends = {}
    caps = {}
    for k in range(1, cfg.K + 1):
        if over_q:
            for p in range(1, d + 1):
                caps[("r", k, p)] = (cfg.N(k) - d) // d
            caps[("t", k, 0)] = cfg.M(k) - d
        else:
            caps[("r", k, 0)] = cfg.N(k) - d
            for q in range(1, d + 1):
                caps[("t", k, q)] = (cfg.M(k) - d) // d
    for k, j in cfg.cross_pairs():
        for s in range(1, d + 1):
            item = (k, j, s)
            items.append(item)
            if over_q:
                ends[item] = (("r", k, s), ("t", j, 0))
            else:
                ends[item] = (("r", k, 0), ("t", j, s))
    return _Instance(items=tuple(items), ends=ends, caps=caps)


def _unbundle(cfg: NetworkConfig, d: int, over_q: bool, assign: dict) -> AllocationPolicy:
    sides = {}
    for k, j in cfg.cross_pairs():
        for p in range(1, d + 1):
            for q in range(1, d + 1):
                sides[(k, j, p, q)] = assign[(k, j, p if over_q else q)]
    return AllocationPolicy.from_sides(cfg, sides)


def run_ptt_symmetric(cfg: NetworkConfig, seed: int | None = 0) -> PttResult:
    """Transfer run that preserves stream uniformity.

    Needs every pair to carry the same stream count d. Constraints are
    moved in bundles of d: with d dividing every N_k the bundle (k, j, p)
    spans all transmit streams q (the allocation stays uniform over q and
    receive pressures stay divisible by d); if instead d divides every
    M_j, the mirrored bundle (k, j, q) spans receive streams p. Balanced
    outcomes therefore satisfy the capacity caps and stream uniformity at
    once, which certifies solvability. For d = 1 this reduces exactly to
    :func:`run_ptt` from the same seed.

    An integer seed draws the starting bundle sides at random; ``seed=None``
    starts with every bundle on the receive side. Either way the engine's
    choices are deterministic.
    """
    ds = {cfg.d(k) for k in range(1, cfg.K + 1)}
    if len(ds) != 1:
        raise ValueError("bundled allocation needs a common stream count")
    d = ds.pop()
    q_uniform = all(cfg.N(k) % d == 0 for k in range(1, cfg.K + 1))
    p_uniform = all(cfg.M(j) % d == 0 for j in range(1, cfg.K + 1))
    if not q_uniform and not p_uniform:
        raise ValueError(
            "symmetric transfers need d to divide every N_k or every M_j"
        )
    inst = _bundled_instance(cfg, d, over_q=q_uniform)

    if seed is None:
        assign = dict.fromkeys(inst.items, "r")
    else:
        rng_init = np.random.default_rng(seed)
        assign = {it: ("r" if int(rng_init.integers(0, 2)) else "t") for it in inst.items}

    balanced, tree, transfers = _run_transfer_engine(inst, assign, None)

    out = _unbundle(cfg, d, over_q=q_uniform, assign=assign)
    if balanced:
        return PttResult(balanced=True, alloc=out, transfers=transfers)
    witness = _witness_from_tree(cfg, tree.nodes)
    return PttResult(
        balanced=False, alloc=out, transfers=transfers, tree=tree, witness=witness
    )


# ---------------------------------------------------------------------------
# deciding the caps
# ---------------------------------------------------------------------------


def flow_feasibility(cfg: NetworkConfig):
    """Decide whether a capacity-respecting allocation exists.

    Runs the transfer engine from the all-receive start. Returns
    (policy, None) when it balances, else (None, witness) where the witness
    is the properness violation extracted from the stuck tree. The start
    and every choice of the engine are fixed, so the answer is the same in
    every process.
    """
    inst = _plain_instance(cfg)
    assign = dict.fromkeys(inst.items, "r")
    balanced, tree, _ = _run_transfer_engine(inst, assign, None)
    if balanced:
        return AllocationPolicy.from_sides(cfg, assign), None
    return None, _witness_from_tree(cfg, tree.nodes)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllocationReport:
    """Which of the three certificate conditions an allocation meets.

    A sufficiency certificate needs all three: complementarity (every
    constraint on exactly one side), the capacity caps on both sides, and
    stream uniformity in at least one direction.
    """

    complementary: bool
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
        return self.complementary and self.capacities_ok and self.stream_uniform

    def to_dict(self) -> dict:
        return {
            "complementary": self.complementary,
            "rx_capacity_ok": self.rx_capacity_ok,
            "tx_capacity_ok": self.tx_capacity_ok,
            "uniform_over_q": self.uniform_over_q,
            "uniform_over_p": self.uniform_over_p,
            "certificate": self.certificate,
            "rx_overloads": [list(x) for x in self.rx_overloads],
            "tx_overloads": [list(x) for x in self.tx_overloads],
        }


def verify_allocation(cfg: NetworkConfig, alloc: AllocationPolicy) -> AllocationReport:
    """Check complementarity, both capacity caps, and stream uniformity."""
    complementary = True
    expected = set(cfg.quads())
    seen = set(alloc.c_r) | set(alloc.c_t)
    if seen != expected:
        complementary = False
    for quad in expected:
        cr = alloc.c_r.get(quad, 0)
        ct = alloc.c_t.get(quad, 0)
        if cr not in (0, 1) or ct not in (0, 1) or cr + ct != 1:
            complementary = False

    rx_load = defaultdict(int)
    tx_load = defaultdict(int)
    for quad in expected:
        k, j, p, q = quad
        if alloc.c_r.get(quad, 0) == 1:
            rx_load[(k, p)] += 1
        if alloc.c_t.get(quad, 0) == 1:
            tx_load[(j, q)] += 1

    rx_over = []
    for k in range(1, cfg.K + 1):
        cap = cfg.N(k) - cfg.d(k)
        for p in range(1, cfg.d(k) + 1):
            if rx_load[(k, p)] > cap:
                rx_over.append((k, p, rx_load[(k, p)], cap))
    tx_over = []
    for j in range(1, cfg.K + 1):
        cap = cfg.M(j) - cfg.d(j)
        for q in range(1, cfg.d(j) + 1):
            if tx_load[(j, q)] > cap:
                tx_over.append((j, q, tx_load[(j, q)], cap))

    uniform_q = True
    uniform_p = True
    for k, j in cfg.cross_pairs():
        for p in range(1, cfg.d(k) + 1):
            vals = {
                (alloc.c_r.get((k, j, p, q), 0), alloc.c_t.get((k, j, p, q), 0))
                for q in range(1, cfg.d(j) + 1)
            }
            if len(vals) > 1:
                uniform_q = False
        for q in range(1, cfg.d(j) + 1):
            vals = {
                (alloc.c_r.get((k, j, p, q), 0), alloc.c_t.get((k, j, p, q), 0))
                for p in range(1, cfg.d(k) + 1)
            }
            if len(vals) > 1:
                uniform_p = False

    return AllocationReport(
        complementary=complementary,
        rx_capacity_ok=not rx_over,
        tx_capacity_ok=not tx_over,
        uniform_over_q=uniform_q,
        uniform_over_p=uniform_p,
        rx_overloads=tuple(rx_over),
        tx_overloads=tuple(tx_over),
    )
