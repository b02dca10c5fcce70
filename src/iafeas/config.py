"""Network configurations for K-pair MIMO interference channels.

A configuration lists, for every transmit/receive pair, the transmit antenna
count M, the receive antenna count N and the number of data streams d the
pair wants to carry. All pair and stream indices in the public API are
1-based; only array internals are 0-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .fields import COMPLEX, validate_field

# Ceiling on scaled antenna/stream counts. Python integers do not overflow,
# but counts near 2**31 could never be realized as array dimensions anyway.
_DIM_CEILING = (1 << 31) - 1


@dataclass(frozen=True)
class PairConfig:
    """Antenna and stream counts of one transmit/receive pair.

    Attributes
    ----------
    M : int
        Transmit antennas.
    N : int
        Receive antennas.
    d : int
        Data streams the pair carries.
    """

    M: int
    N: int
    d: int

    def __post_init__(self) -> None:
        for name in ("M", "N", "d"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """An interference network: one :class:`PairConfig` per pair.

    Instances are immutable. Pair indices are 1-based.
    """

    pairs: tuple[PairConfig, ...]

    def __post_init__(self) -> None:
        coerced = tuple(
            p if isinstance(p, PairConfig) else PairConfig(*p) for p in self.pairs
        )
        object.__setattr__(self, "pairs", coerced)
        if not self.pairs:
            raise ValueError("a network needs at least one pair")

    @classmethod
    def symmetric(cls, K: int, M: int, N: int, d: int) -> "NetworkConfig":
        """All K pairs share the same (M, N, d)."""
        if K < 1:
            raise ValueError("K must be at least 1")
        return cls(tuple(PairConfig(M, N, d) for _ in range(K)))

    @classmethod
    def from_tuples(cls, triples) -> "NetworkConfig":
        """Build from an iterable of (M, N, d) triples."""
        return cls(tuple(PairConfig(*t) for t in triples))

    @property
    def K(self) -> int:
        return len(self.pairs)

    def pair(self, k: int) -> PairConfig:
        if not 1 <= k <= self.K:
            raise IndexError(f"pair index {k} out of range 1..{self.K}")
        return self.pairs[k - 1]

    def M(self, k: int) -> int:
        return self.pair(k).M

    def N(self, k: int) -> int:
        return self.pair(k).N

    def d(self, k: int) -> int:
        return self.pair(k).d

    def is_symmetric(self) -> bool:
        return len(set(self.pairs)) == 1

    def cross_pairs(self):
        """Ordered interference links (k, j), k first, then j ascending.

        Every layer reads the set of interfering links from here alone."""
        for k in range(1, self.K + 1):
            for j in range(1, self.K + 1):
                if j != k:
                    yield (k, j)

    def quads(self):
        """Ordered constraint labels (k, j, p, q): receiver k, transmitter j,
        receive stream p, transmit stream q."""
        d = [0] + [pair.d for pair in self.pairs]
        for k, j in self.cross_pairs():
            for p in range(1, d[k] + 1):
                for q in range(1, d[j] + 1):
                    yield (k, j, p, q)

    def describe(self) -> str:
        """Compact label, e.g. ``(2x2,1)^3`` for a symmetric network."""
        if self.is_symmetric():
            p = self.pairs[0]
            return f"({p.M}x{p.N},{p.d})^{self.K}"
        body = ",".join(f"({p.M}x{p.N},{p.d})" for p in self.pairs)
        return "{" + body + "}"


def validate_config(cfg: NetworkConfig) -> tuple[int, ...]:
    """The 1-based pairs that cannot carry their streams, min(M_k, N_k) < d_k.

    Empty when the network is stream-admissible.
    """
    return tuple(
        k for k in range(1, cfg.K + 1) if min(cfg.M(k), cfg.N(k)) < cfg.d(k)
    )


def scale_config(cfg: NetworkConfig, c: int) -> NetworkConfig:
    """Multiply every antenna and stream count by a positive integer c."""
    if isinstance(c, bool) or not isinstance(c, int) or c < 1:
        raise ValueError(f"scale factor must be a positive integer, got {c!r}")
    scaled = []
    for p in cfg.pairs:
        M, N, d = p.M * c, p.N * c, p.d * c
        if max(M, N, d) > _DIM_CEILING:
            raise OverflowError("scaled antenna counts exceed the 2**31 - 1 ceiling")
        scaled.append(PairConfig(M, N, d))
    return NetworkConfig(tuple(scaled))


def system_shape(cfg: NetworkConfig) -> tuple[int, int]:
    """Constraint and free-variable counts of the alignment system.

    Returns
    -------
    (C, V) : tuple of int
        C is the number of scalar zero-forcing constraints, ``d_k d_j``
        summed over the links (k, j) of :meth:`NetworkConfig.cross_pairs`.
        V is the number of free transceiver variables once each
        beamformer's leading d x d block is pinned,
        ``sum_k d_k (M_k + N_k - 2 d_k)``.
    """
    d = [0] + [p.d for p in cfg.pairs]
    C = sum(d[k] * d[j] for k, j in cfg.cross_pairs())
    V = sum(p.d * (p.M + p.N - 2 * p.d) for p in cfg.pairs)
    return C, V


# ---------------------------------------------------------------------------
# JSON configuration format
#
# {"pairs": [{"M": 2, "N": 2, "d": 1}, ...],
#  "seed": 7,                      optional
#  "field": "complex"}             optional; or {"prime": 2147483647}
#
# Any other key, at the top level or in a pair, is malformed input.
# ---------------------------------------------------------------------------


def config_from_dict(obj) -> tuple[NetworkConfig, "int | None", object]:
    """Parse the JSON configuration object.

    Returns (config, seed or None, field descriptor). Raises ``ValueError``
    on malformed input.
    """
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(obj) - {"pairs", "seed", "field"})
    if unknown:
        raise ValueError(f"config has unknown keys {unknown}")
    if "pairs" not in obj:
        raise ValueError('config is missing the "pairs" list')
    raw_pairs = obj["pairs"]
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise ValueError('"pairs" must be a non-empty list')
    pairs = []
    for i, entry in enumerate(raw_pairs, start=1):
        if not isinstance(entry, dict) or set(entry) != {"M", "N", "d"}:
            raise ValueError(f"pair {i} needs exactly the keys M, N, d, got {entry!r}")
        pairs.append(PairConfig(entry["M"], entry["N"], entry["d"]))
    cfg = NetworkConfig(tuple(pairs))

    seed = obj.get("seed")
    if seed is not None:
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")

    field = obj.get("field", COMPLEX)
    if isinstance(field, dict):
        if set(field) != {"prime"}:
            raise ValueError('field object must be exactly {"prime": p}')
        field = field["prime"]
    field = validate_field(field)
    return cfg, seed, field


def config_to_dict(cfg: NetworkConfig, seed=None, field=COMPLEX) -> dict:
    """Inverse of :func:`config_from_dict`."""
    out: dict = {
        "pairs": [{"M": p.M, "N": p.N, "d": p.d} for p in cfg.pairs],
    }
    if seed is not None:
        out["seed"] = int(seed)
    out["field"] = "complex" if field == COMPLEX else {"prime": int(field)}
    return out


def read_json(path):
    """Parse a JSON file; failing to read or parse it raises ``ValueError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"cannot read config file: {exc}") from None


def load_config_file(path) -> tuple[NetworkConfig, "int | None", object]:
    """Read and parse a JSON configuration file."""
    return config_from_dict(read_json(path))
