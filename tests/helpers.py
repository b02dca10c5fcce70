"""Shared test utilities: random configurations and brute-force oracles."""

from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from iafeas import (
    AllocationPolicy,
    ChannelSet,
    NetworkConfig,
    RankVerdict,
    ReducedTransceivers,
    SubsetWitness,
    generic_full_row_rank,
    properness_witness_from_links,
    residuals,
    sample_channels,
    scale_config,
    system_shape,
)
from iafeas.allocation import PressureTree, PttDefect, _run
from iafeas.conditions import bundle_axis
from iafeas.fields import COMPLEX
from iafeas.rank import DEFAULT_PRIME, _svd_rank
from iafeas.solver import ALT_MIN_STALL_TOL, ALT_MIN_STALL_WINDOW, GN_STALL_TOL, GN_STALL_WINDOW
from iafeas.transceivers import block_starts

MAX_ENUM_PAIRS = 4


def random_config(rng, k_lo=2, k_hi=4, mn_hi=6, d_hi=2):
    """Random stream-admissible configuration (d_k <= min(M_k, N_k))."""
    K = int(rng.integers(k_lo, k_hi + 1))
    pairs = []
    for _ in range(K):
        M = int(rng.integers(1, mn_hi + 1))
        N = int(rng.integers(1, mn_hi + 1))
        d = int(rng.integers(1, min(M, N, d_hi) + 1))
        pairs.append((M, N, d))
    return NetworkConfig.from_tuples(pairs)


def mixed_rung(k, ds):
    """The benchmark ladder's mixed networks, unshuffled: streams cycle
    through ``ds`` and M + N = (K + 1) d + 1."""
    pairs = []
    for i in range(k):
        d = ds[i % len(ds)]
        m = ((k + 1) * d + 1) // 2 + i % 2
        pairs.append((m, (k + 1) * d + 1 - m, d))
    return NetworkConfig.from_tuples(pairs)


def coin_flips(items, seed):
    """One fair coin per item, in order: item -> "r" | "t"."""
    rng = np.random.default_rng(seed)
    return {item: "r" if int(rng.integers(0, 2)) else "t" for item in items}


def init_allocation(cfg, seed=0):
    """Random starting allocation, one fair coin per constraint."""
    return AllocationPolicy(cfg=cfg, sides=coin_flips(cfg.quads(), seed))


def random_bundled_run(cfg, seed):
    """The bundled transfer run from one fair coin per bundle.

    For d = 1 this is ``run_ptt`` from ``init_allocation(cfg, seed)``.
    """
    axis, reason = bundle_axis(cfg)
    if not axis:
        raise ValueError(f"bundled allocation needs the divisible family: {reason}")
    coins = coin_flips(engine_items(cfg, axis), seed)
    return _run(cfg, axis, [side == "r" for side in coins.values()])


def reciprocal_pairs(pairs):
    """The M<->N reciprocal network's pairs: (N, M, d) for every (M, N, d)."""
    return tuple((N, M, d) for M, N, d in pairs)


def canonical_pairs(pairs):
    """One network's canonical form: the smaller of its sorted pairs and its
    sorted reciprocal pairs, so relabelled and reciprocal copies agree."""
    return min(tuple(sorted(pairs)), tuple(sorted(reciprocal_pairs(pairs))))


def census(K, mn_hi):
    """Every K-pair network with 1 <= M, N <= ``mn_hi`` and 1 <= d <= min(M, N),
    once up to relabelling and M<->N reciprocity, as canonical pair tuples."""
    types = [
        (M, N, d)
        for M in range(1, mn_hi + 1)
        for N in range(1, mn_hi + 1)
        for d in range(1, min(M, N) + 1)
    ]
    for pairs in combinations_with_replacement(types, K):
        if pairs == canonical_pairs(pairs):
            yield pairs


def cross_products(cfg, channels, tilde):
    """Reference computation of every U_k^H H_kj V_j via full matrices."""
    tx = tilde.reconstruct()
    out = {}
    for k, j in cfg.cross_pairs():
        out[(k, j)] = tx.U[k - 1].conj().T @ channels.cross[(k, j)] @ tx.V[j - 1]
    return out


def stacked_residual_oracle(cfg, channels, tilde):
    """Row-ordered residual vector assembled from the reference products."""
    prods = cross_products(cfg, channels, tilde)
    rows = []
    for k, j in cfg.cross_pairs():
        rows.append(prods[(k, j)].ravel())
    return np.concatenate(rows) if rows else np.zeros(0, dtype=complex)


def fd_jacobian(cfg, channels, tilde, h=1e-4):
    """Central-difference Jacobian of the residual map.

    The residual is polynomial in the stored variables (holomorphic), so a
    real step recovers the complex derivative up to O(h^2) rounding.
    """
    x0 = tilde.to_vector()
    C, V = system_shape(cfg)
    J = np.zeros((C, V), dtype=complex)
    for i in range(V):
        e = np.zeros_like(x0)
        e[i] = h
        fp = residuals(channels, ReducedTransceivers.from_vector(cfg, x0 + e))
        fm = residuals(channels, ReducedTransceivers.from_vector(cfg, x0 - e))
        J[:, i] = (fp - fm) / (2 * h)
    return J


def gf_rank_reference(matrix, p):
    """Rank over GF(p) by plain column-by-column Gaussian elimination.

    Independent of the blocked kernel: whole-row int64 updates, no float
    arithmetic, no recursion. Residues stay below p < 2**31, so every
    product fits in int64.
    """
    A = np.mod(np.asarray(matrix), p).astype(np.int64)
    m, n = A.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        pivots = np.nonzero(A[r:, c])[0]
        if pivots.size == 0:
            continue
        i = r + int(pivots[0])
        A[[r, i]] = A[[i, r]]
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        rows = r + 1 + np.nonzero(A[r + 1 :, c])[0]
        A[rows] = (A[rows] - A[rows, c][:, None] * A[r][None, :]) % p
        r += 1
    return r


def per_link_channels(cfg, seed, field, include_direct=False):
    """A channel draw made link by link: the oracle for ``sample_channels``.

    Returns ``(cross, direct)``. Each cross link in ``cfg.cross_pairs()``
    order, then each direct link in pair order, takes its own generator
    calls: one ``integers`` call over a prime field, and over the complex
    field one ``standard_normal`` call for the real parts and one for the
    imaginary parts. PCG64 gives the same numbers from many calls as from
    one, so the package's one-call draw must match this bit for bit.
    """
    cross_ss, direct_ss = np.random.SeedSequence(seed).spawn(2)

    def draw(rng, rows, cols):
        if field == COMPLEX:
            re = rng.standard_normal((rows, cols))
            im = rng.standard_normal((rows, cols))
            return (re + 1j * im) / np.sqrt(2.0)
        return rng.integers(0, field, size=(rows, cols), dtype=np.int64)

    rng = np.random.default_rng(cross_ss)
    cross = {(k, j): draw(rng, cfg.N(k), cfg.M(j)) for k, j in cfg.cross_pairs()}
    direct = {}
    if include_direct:
        rng = np.random.default_rng(direct_ss)
        direct = {k: draw(rng, cfg.N(k), cfg.M(k)) for k in range(1, cfg.K + 1)}
    return cross, direct


def structured_channels(cfg, seed, group, p=DEFAULT_PRIME):
    """The group point of a report's rank section, rebuilt from its JSON.

    ``group`` is the section's ``"group"`` entry: the orders of G's cyclic
    factors and the 1-based orbits. Pair x of an orbit is element x of G,
    written in the mixed radix of the orders with the first factor's digit
    most significant, applied to the orbit's first pair. ``seed`` draws
    only the links into the first pairs, in link order, and H_{gk,gj} =
    H_kj defines the rest: H_{k,j} = H_{r,j'} for k = g r, r the first
    pair of k's orbit, and j' = (-g) j. The draw is over the group's own
    prime, the entry's ``"prime"``, which is recorded only where it
    differs from the report's modulus ``p``.
    """
    p = group.get("prime", p)
    orders = group["orders"]
    place = {}
    for orbit in group["orbits"]:
        for x, k in enumerate(orbit):
            place[k] = (tuple(orbit), x)

    def digits(x):
        out = []
        for q in reversed(orders):
            out.append(x % q)
            x //= q
        return out[::-1]

    def number(ds):
        x = 0
        for q, digit in zip(orders, ds):
            x = x * q + digit % q
        return x

    reps = [orbit[0] for orbit in group["orbits"]]
    drawn = sample_channels(cfg, seed, field=p, receivers=reps).cross
    cross = {}
    for k, j in cfg.cross_pairs():
        orbit_k, g = place[k]
        orbit_j, h = place[j]
        shifted = number([b - a for a, b in zip(digits(g), digits(h))])
        cross[(k, j)] = drawn[(orbit_k[0], orbit_j[shifted])]
    return ChannelSet(cfg=cfg, field=p, seed=seed, cross=cross, direct={})


def trial_division_is_prime(n):
    """Primality by trial division, the slow and obvious oracle."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def max_allocation(cfg):
    """Most constraints that fit within the stream caps, by augmenting paths.

    Max-flow from a source through each constraint (k, j, p, q) to its
    receive stream ("r", k, p) or transmit stream ("t", j, q), then to a
    sink with the stream's cap. Each constraint is placed by a breadth-first
    search over streams that may pass a placed constraint on to its other
    stream; standard library only, independent of the package's engine.
    A capacity-respecting allocation exists when this equals the number of
    constraints.
    """
    cap = {}
    for k in range(1, cfg.K + 1):
        for s in range(1, cfg.d(k) + 1):
            cap[("r", k, s)] = cfg.N(k) - cfg.d(k)
            cap[("t", k, s)] = cfg.M(k) - cfg.d(k)
    held = {cell: [] for cell in cap}

    def ends(c):
        return ("r", c[0], c[2]), ("t", c[1], c[3])

    placed = 0
    for k, j in cfg.cross_pairs():
        for p in range(1, cfg.d(k) + 1):
            for q in range(1, cfg.d(j) + 1):
                new = (k, j, p, q)
                came = {cell: (new, None) for cell in ends(new)}
                queue = deque(came)
                while queue:
                    cell = queue.popleft()
                    if len(held[cell]) < cap[cell]:
                        while cell is not None:
                            c, prev = came[cell]
                            held[cell].append(c)
                            if prev is not None:
                                held[prev].remove(c)
                            cell = prev
                        placed += 1
                        break
                    for c in held[cell]:
                        r_cell, t_cell = ends(c)
                        other = t_cell if cell == r_cell else r_cell
                        if other not in came:
                            came[other] = (c, cell)
                            queue.append(other)
    return placed


def numeric_rank(matrix):
    """Numerical rank via singular values, as numeric-mode rank tests count it."""
    rank, _ = _svd_rank(matrix)
    return rank


def enumerate_properness_violation(cfg):
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


def antenna_budget_scan(cfg):
    """Antenna budget by scanning all 4^K (T, R) group pairs.

    The oracle for the package's dynamic program: T masks in ascending
    order, and for each the R masks in ascending order, pair 1 the lowest
    bit. Returns the first realizable violation's witness, or None. Meant
    for K <= 8; K = 12 already takes about 0.2 s.
    """
    K = cfg.K
    size = 1 << K
    sum_m = np.zeros(size, dtype=np.int64)
    sum_n = np.zeros(size, dtype=np.int64)
    sum_d = np.zeros(size, dtype=np.int64)
    singleton = np.zeros(size, dtype=np.int64)  # 1-based index, 0 if not a singleton
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length()
        rest = mask ^ low
        sum_m[mask] = sum_m[rest] + cfg.M(i)
        sum_n[mask] = sum_n[rest] + cfg.N(i)
        sum_d[mask] = sum_d[rest] + cfg.d(i)
        if rest == 0:
            singleton[mask] = i
    r_all = np.arange(1, size, dtype=np.int64)
    r_sing = singleton[r_all]

    def bits(mask):
        return tuple(i for i in range(1, K + 1) if (mask >> (i - 1)) & 1)

    for t_mask in range(1, size):
        # R = {x} with x in T, or T = {y} with y in R, is not realizable
        ok = ~((r_sing > 0) & (((t_mask >> (np.maximum(r_sing, 1) - 1)) & 1) == 1))
        y = singleton[t_mask]
        if y > 0:
            ok &= ((r_all >> (y - 1)) & 1) == 0
        lhs = np.maximum(sum_m[t_mask], sum_n[r_all])
        rhs = sum_d[t_mask | r_all]
        bad = np.flatnonzero(ok & (lhs < rhs))
        if bad.size == 0:
            continue
        idx = bad[0]
        tx = bits(t_mask)
        rx = bits(int(r_all[idx]))
        return SubsetWitness(
            kind="antenna_budget",
            lhs=int(lhs[idx]),
            rhs=int(rhs[idx]),
            tx_set=frozenset(tx),
            rx_set=frozenset(rx),
            links=frozenset((k, j) for k in rx for j in tx if k != j),
        )
    return None


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


def scaling_check(cfg, c, seed=0):
    """Rank-test a configuration and its c-fold copy side by side."""
    scaled_cfg = scale_config(cfg, c)
    base = generic_full_row_rank(cfg, seed=seed)
    scaled = generic_full_row_rank(scaled_cfg, seed=seed)
    c0, v0 = system_shape(cfg)
    c1, v1 = system_shape(scaled_cfg)
    dims = c1 == c * c * c0 and v1 == c * c * v0
    return ScalingReport(c=c, base=base, scaled=scaled, dims_consistent=dims)


def engine_items(cfg, bundle):
    """The transfer engine's items as quads, in item order.

    ``bundle`` is "", "q" or "p": a bundle over q is the item (k, j, p, 0)
    and one over p the item (k, j, 0, q). With ``bundle == ""`` these are
    the constraints in ``cfg.quads()`` order.
    """
    d = [0] + [pair.d for pair in cfg.pairs]
    for k, j in cfg.cross_pairs():
        for p in (0,) if bundle == "p" else range(1, d[k] + 1):
            for q in (0,) if bundle == "q" else range(1, d[j] + 1):
                yield (k, j, p, q)


@dataclass(frozen=True)
class ReferenceInstance:
    """The instance :func:`transfer_engine_reference` reads, keyed by tuples."""

    ends: dict  # item -> (r_cell, t_cell), in item order
    caps: dict  # cell -> capacity


def reference_instance(cfg, bundle):
    """The engine's instance with tuple keys, built from the network.

    Cells are ("r", k, p) and ("t", j, q), with stream 0 for a merged side:
    bundled over q, the receive cells hold (N_k - d) / d bundles and the
    transmitter ("t", j, 0) M_j - d; bundled over p is the mirror image.
    """
    caps = {}
    for k, pair in enumerate(cfg.pairs, 1):
        d = pair.d
        for side, cap, merged in (
            ("r", pair.N - d, bundle == "p"),
            ("t", pair.M - d, bundle == "q"),
        ):
            if merged:
                caps[(side, k, 0)] = cap
            else:
                for s in range(1, d + 1):
                    caps[(side, k, s)] = cap // d if bundle else cap
    ends = {
        item: (("r", item[0], item[2]), ("t", item[1], item[3]))
        for item in engine_items(cfg, bundle)
    }
    return ReferenceInstance(ends=ends, caps=caps)


def transfer_engine_reference(inst, assign):
    """The transfer engine as it stood before its per-step scans were cut.

    The oracle for ``allocation._run_transfer_engine``: same instance, same
    in-place rebalancing of ``assign``, same (balanced, tree, transfers).
    Every growth round walks every tree node's items, every transfer takes
    ``min`` over the whole tree, and every detach rebuilds the tree's
    children map, so each step costs O(tree).
    """
    pressure = dict(inst.caps)
    by_r = defaultdict(list)
    by_t = defaultdict(list)
    for item, (r_cell, t_cell) in inst.ends.items():
        by_r[r_cell].append(item)
        by_t[t_cell].append(item)
        pressure[r_cell if assign[item] == "r" else t_cell] -= 1

    deficit = sum(-v for v in pressure.values() if v < 0)
    round_guard = (deficit + 2) * (len(pressure) + deficit + 2)
    transfers = 0
    rounds = 0

    while True:
        root = min((c for c, v in pressure.items() if v < 0), default=None)
        if root is None:
            return True, None, transfers

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
                _detach_subtree(path[-1][2], parent, via)

            if pressure[root] >= 0:
                break
            if not grew and not drained:
                tree_nodes = tuple(sorted(parent))
                tree = PressureTree(
                    root=root,
                    nodes=tree_nodes,
                    pressures={n: pressure[n] for n in tree_nodes},
                )
                return False, tree, transfers


def _detach_subtree(node, parent, via):
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
# The numeric path as it stood link by link: the oracles for the stacked
# solvers and the stacked placement. The loops are copied verbatim, with
# the solvers' plateau stops read from their constants; the argument
# checks are left to the package.
# ---------------------------------------------------------------------------


def cross_terms_reference(cfg, channels, U, V):
    """U_k^H H_kj V_j for every link (k, j), in link order."""
    for k, j in cfg.cross_pairs():
        yield U[k - 1].conj().T @ channels.cross[(k, j)] @ V[j - 1]


def cross_leakage_reference(cfg, channels, U, V) -> float:
    total = 0.0
    for T in cross_terms_reference(cfg, channels, U, V):
        total += float(np.sum(np.abs(T) ** 2))
    return total


def direct_margin_reference(cfg, channels, U, V):
    if not channels.direct:
        return None
    margin = np.inf
    for k in range(1, cfg.K + 1):
        D = U[k - 1].conj().T @ channels.direct[k] @ V[k - 1]
        s = np.linalg.svd(D, compute_uv=False)
        margin = min(margin, float(s[cfg.d(k) - 1]))
    return margin


def max_cross_reference(cfg, channels, U, V) -> float:
    """``verify_ia``'s largest cross-term Frobenius norm, link by link."""
    max_cross = 0.0
    for T in cross_terms_reference(cfg, channels, U, V):
        max_cross = max(max_cross, float(np.linalg.norm(T)))
    return max_cross


def alt_min_reference(cfg, channels, max_iters=500, seed=0):
    """``solver.alt_min`` link by link: returns (U, V, history, iterations, margin)."""
    K = cfg.K
    rng = np.random.default_rng(seed)

    V = []
    for j in range(1, K + 1):
        Z = rng.standard_normal((cfg.M(j), cfg.d(j))) + 1j * rng.standard_normal(
            (cfg.M(j), cfg.d(j))
        )
        Q, _ = np.linalg.qr(Z)
        V.append(Q[:, : cfg.d(j)])
    U = [np.linalg.qr(channels.direct[k] @ V[k - 1])[0][:, : cfg.d(k)] for k in range(1, K + 1)]

    # k first, then j ascending: Q_k sums over j ascending, B_j over k
    links = tuple(cfg.cross_pairs())
    history = [cross_leakage_reference(cfg, channels, U, V)]
    converged = history[0] < 1e-10
    iterations = 0
    while not converged and iterations < max_iters:
        iterations += 1
        Q = [np.zeros((cfg.N(k), cfg.N(k)), dtype=complex) for k in range(1, K + 1)]
        for k, j in links:
            X = channels.cross[(k, j)] @ V[j - 1]
            Q[k - 1] += X @ X.conj().T
        for k in range(1, K + 1):
            U[k - 1] = np.linalg.eigh(Q[k - 1])[1][:, : cfg.d(k)]
        history.append(cross_leakage_reference(cfg, channels, U, V))
        B = [np.zeros((cfg.M(j), cfg.M(j)), dtype=complex) for j in range(1, K + 1)]
        for k, j in links:
            X = channels.cross[(k, j)].conj().T @ U[k - 1]
            B[j - 1] += X @ X.conj().T
        for j in range(1, K + 1):
            V[j - 1] = np.linalg.eigh(B[j - 1])[1][:, : cfg.d(j)]
        history.append(cross_leakage_reference(cfg, channels, U, V))
        converged = history[-1] < 1e-10
        back = 2 * ALT_MIN_STALL_WINDOW + 1
        if (
            not converged
            and len(history) >= back
            and history[-back] - history[-1] < ALT_MIN_STALL_TOL * history[-1]
        ):
            break

    margin = direct_margin_reference(cfg, channels, U, V)
    return U, V, tuple(history), iterations, margin


def place_reference(cfg, channels, tilde):
    """``jacobian._place`` link by link: the linear coefficients at a point."""
    C, V = system_shape(cfg)
    dtype = np.complex128 if channels.is_complex else np.int64
    A = np.zeros((C, V), dtype=dtype)

    starts = block_starts(cfg)

    r = 0
    for k, j in cfg.cross_pairs():
        H = channels.cross[(k, j)]
        dk, dj = cfg.d(k), cfg.d(j)
        un = cfg.N(k) - dk
        vm = cfg.M(j) - dj
        # U_k^H H_kj and H_kj V_j; at the origin the loop reads their rows
        # and columns straight from H_kj (the first d_k rows, d_j columns)
        UH = HV = H
        if tilde is not None:
            UH = H[:dk, :] + tilde.u[k - 1].T @ H[dk:, :]
            HV = H[:, :dj] + H[:, dj:] @ tilde.v[j - 1]
        for p in range(dk):
            ucol = starts[k - 1] + p * un
            for q in range(dj):
                vcol = starts[cfg.K + j - 1] + q * vm
                A[r, ucol : ucol + un] = HV[dk:, q]
                A[r, vcol : vcol + vm] = UH[p, dj:]
                r += 1
    return A


def residuals_reference(cfg, channels, tilde):
    """``jacobian.residuals`` link by link."""
    C, _ = system_shape(cfg)
    F = np.zeros(C, dtype=np.complex128)
    base = 0
    for k, j in cfg.cross_pairs():
        H = channels.cross[(k, j)]
        dk, dj = cfg.d(k), cfg.d(j)
        W = tilde.u[k - 1]
        T = tilde.v[j - 1]
        block = (
            H[:dk, :dj]
            + W.T @ H[dk:, :dj]
            + H[:dk, dj:] @ T
            + W.T @ H[dk:, dj:] @ T
        )
        F[base : base + dk * dj] = block.ravel(order="C")
        base += dk * dj
    return F


def gauss_newton_reference(cfg, channels, init):
    """``solver.gauss_newton`` over the per-link residuals and placement.

    Returns (iterations, history, residual_norm, x, note).
    """
    C, V_dim = system_shape(cfg)

    x = init.to_vector()
    F = residuals_reference(cfg, channels, init)
    history = [float(np.sum(np.abs(F) ** 2))]
    note = "" if C else "no cross constraints"

    lam = None
    iterations = 0
    converged = C == 0 or float(np.max(np.abs(F))) < 1e-9
    while not converged and iterations < 100:
        iterations += 1
        tilde = ReducedTransceivers.from_vector(cfg, x)
        J = place_reference(cfg, channels, tilde)
        if lam is None:
            mean_row = float(np.mean(np.sum(np.abs(J) ** 2, axis=1)))
            lam = 1e-3 * mean_row if mean_row > 0 else 1e-3
        JJH = J @ J.conj().T
        norm_f = float(np.linalg.norm(F))
        accepted = False
        for _ in range(60):
            try:
                y = np.linalg.solve(JJH + lam * np.eye(C), F)
            except np.linalg.LinAlgError:
                lam *= 2.0
                continue
            delta = -J.conj().T @ y
            x_new = x + delta
            if not np.all(np.isfinite(x_new)):
                lam *= 2.0
                continue
            F_new = residuals_reference(
                cfg, channels, ReducedTransceivers.from_vector(cfg, x_new)
            )
            if not np.all(np.isfinite(F_new)):
                lam *= 2.0
                continue
            if float(np.linalg.norm(F_new)) < norm_f:
                x = x_new
                F = F_new
                lam *= 0.5
                accepted = True
                break
            lam *= 2.0
        history.append(float(np.sum(np.abs(F) ** 2)))
        if not accepted:
            note = "stalled: no damping level reduced the residual"
            break
        converged = float(np.max(np.abs(F))) < 1e-9
        back = GN_STALL_WINDOW + 1
        if (
            not converged
            and len(history) >= back
            and history[-back] - history[-1] < GN_STALL_TOL * history[-1]
        ):
            note = "stalled: residual plateau"
            break

    residual_norm = float(np.max(np.abs(F), initial=0.0))
    return iterations, tuple(history), residual_norm, x, note
