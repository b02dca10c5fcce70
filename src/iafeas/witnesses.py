"""Infeasibility witnesses: violated counting inequalities with index sets.

A witness pins down one concrete inequality that the configuration fails,
so a verdict can be re-derived without rerunning the machinery that found
it. Each inequality is written once, in :meth:`SubsetWitness.recompute`;
:meth:`SubsetWitness.of` takes a new witness's sides from there. Three
kinds exist:

* ``stream_support``: one pair cannot carry its streams,
  min(M_k, N_k) < d_k.
* ``antenna_budget``: for index sets T (transmitters) and R (receivers),
  max(sum_T M_j, sum_R N_k) < sum_{T union R} d_i.
* ``properness``: for a set L of interference pairs (k, j), the free
  variables of the touched beamformers are outnumbered by the constraints,
  sum_{rx proj} d_k (N_k - d_k) + sum_{tx proj} d_j (M_j - d_j)
  < sum_L d_k d_j.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import NetworkConfig

STREAM_SUPPORT = "stream_support"
ANTENNA_BUDGET = "antenna_budget"
PROPERNESS = "properness"


@dataclass(frozen=True)
class SubsetWitness:
    """A violated inequality: ``lhs < rhs`` certified by the index data.

    ``pair`` is set for stream_support, ``tx_set``/``rx_set`` for
    antenna_budget, ``links`` (ordered pairs (k, j)) for properness. For
    properness witnesses ``tx_set``/``rx_set`` carry the projections of
    ``links`` for display; :meth:`recompute` derives everything it needs
    from the primary index data alone.
    """

    kind: str
    lhs: int
    rhs: int
    pair: int | None = None
    tx_set: frozenset | None = None
    rx_set: frozenset | None = None
    links: frozenset | None = None

    @classmethod
    def of(cls, cfg: NetworkConfig, kind: str, **index) -> "SubsetWitness":
        """The witness of ``kind`` on the index data, sides from :meth:`recompute`."""
        lhs, rhs = cls(kind, 0, 0, **index).recompute(cfg)
        return cls(kind, lhs, rhs, **index)

    def recompute(self, cfg: NetworkConfig) -> tuple[int, int]:
        """Re-derive (lhs, rhs) of the cited inequality from the index data."""
        if self.kind == STREAM_SUPPORT:
            if self.pair is None:
                raise ValueError("stream_support witness needs a pair index")
            k = self.pair
            return min(cfg.M(k), cfg.N(k)), cfg.d(k)
        if self.kind == ANTENNA_BUDGET:
            if not self.tx_set or not self.rx_set:
                raise ValueError("antenna_budget witness needs both index sets")
            lhs = max(
                sum(cfg.M(j) for j in self.tx_set),
                sum(cfg.N(k) for k in self.rx_set),
            )
            rhs = sum(cfg.d(i) for i in (self.tx_set | self.rx_set))
            return lhs, rhs
        if self.kind == PROPERNESS:
            if not self.links:
                raise ValueError("properness witness needs a link set")
            rx_proj = {k for k, _ in self.links}
            tx_proj = {j for _, j in self.links}
            lhs = sum(cfg.d(k) * (cfg.N(k) - cfg.d(k)) for k in rx_proj)
            lhs += sum(cfg.d(j) * (cfg.M(j) - cfg.d(j)) for j in tx_proj)
            rhs = sum(cfg.d(k) * cfg.d(j) for k, j in self.links)
            return lhs, rhs
        raise ValueError(f"unknown witness kind {self.kind!r}")

    def holds(self, cfg: NetworkConfig) -> bool:
        """True when the recomputed inequality matches and is violated."""
        lhs, rhs = self.recompute(cfg)
        return lhs == self.lhs and rhs == self.rhs and lhs < rhs

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "lhs": self.lhs, "rhs": self.rhs}
        if self.pair is not None:
            out["pair"] = self.pair
        if self.tx_set is not None:
            out["tx_set"] = sorted(self.tx_set)
        if self.rx_set is not None:
            out["rx_set"] = sorted(self.rx_set)
        if self.links is not None:
            out["links"] = sorted([list(e) for e in self.links])
        return out


def properness_witness_from_links(cfg: NetworkConfig, links) -> SubsetWitness:
    """Build a properness witness for an explicit link set, with projections."""
    links = frozenset((int(k), int(j)) for k, j in links)
    return SubsetWitness.of(
        cfg, PROPERNESS, links=links,
        tx_set=frozenset(j for _, j in links), rx_set=frozenset(k for k, _ in links),
    )


def properness_witness_from_cells(
    cfg: NetworkConfig, rx_cells, tx_cells
) -> SubsetWitness | None:
    """Tighten a stream-cell deficit certificate into a properness witness.

    ``rx_cells`` is a set of (k, p) receive stream cells and ``tx_cells`` a
    set of (j, q) transmit stream cells whose combined capacity falls short
    of the constraints they must absorb. The shortfall

        g = sum_k a_k (N_k - d_k) + sum_j b_j (M_j - d_j)
            - sum_{(k, j) in links} a_k b_j,

    with a_k, b_j the per-pair cell counts and the links those of
    :meth:`~iafeas.config.NetworkConfig.cross_pairs`, is affine in each
    count, so pushing every count to its better endpoint (0 or d) keeps g
    negative. At such a vertex, the links with both endpoints selected
    form a link set violating the properness inequality.

    Returns None when the input certificate is not actually in deficit.
    """
    links = tuple(cfg.cross_pairs())
    a = [0] * (cfg.K + 1)
    b = [0] * (cfg.K + 1)
    for k, _p in rx_cells:
        a[k] += 1
    for j, _q in tx_cells:
        b[j] += 1

    g = sum(a[k] * (cfg.N(k) - cfg.d(k)) for k in range(1, cfg.K + 1))
    g += sum(b[j] * (cfg.M(j) - cfg.d(j)) for j in range(1, cfg.K + 1))
    g -= sum(a[k] * b[j] for k, j in links)
    if g >= 0:
        return None

    # Coordinate sweep: each move picks the endpoint that does not increase
    # the deficit, so g stays negative throughout. The a_k coefficients read
    # only the b_j of their links and vice versa: one pass per side.
    hear = [0] * (cfg.K + 1)
    for k, j in links:
        hear[k] += b[j]
    for k in range(1, cfg.K + 1):
        a[k] = 0 if cfg.N(k) - cfg.d(k) >= hear[k] else cfg.d(k)
    reach = [0] * (cfg.K + 1)
    for k, j in links:
        reach[j] += a[k]
    for j in range(1, cfg.K + 1):
        b[j] = 0 if cfg.M(j) - cfg.d(j) >= reach[j] else cfg.d(j)

    links = {(k, j) for k, j in links if a[k] and b[j]}
    if not links:
        # cannot happen when g < 0; kept as a guard for malformed input
        return None
    witness = properness_witness_from_links(cfg, links)
    return witness if witness.holds(cfg) else None
