"""Scalar field descriptors shared by channel sampling and exact rank tests."""

from __future__ import annotations

from functools import lru_cache

COMPLEX = "complex"

#: smallest prime modulus accepted for exact-rank sampling
MIN_PRIME = 1 << 20

#: default exact-arithmetic modulus, the Mersenne prime 2**31 - 1
DEFAULT_PRIME = (1 << 31) - 1

# Moduli at or above 2**31 would let a product of two residues overflow int64,
# which the elimination kernel relies on, so they are rejected outright.
_PRIME_CEILING = 1 << 31


#: the Miller-Rabin bases 2, 3, 5, 7 decide primality exactly below this
#: bound (Jaeschke 1993), which covers every modulus below 2**31
_MILLER_RABIN_EXACT = 3_215_031_751


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below 3,215,031,751.

    Cached: a report validates the same modulus at every layer it enters.
    """
    if n >= _MILLER_RABIN_EXACT:
        raise ValueError(f"is_prime is exact only below {_MILLER_RABIN_EXACT}")
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_field(field):
    """Normalize a scalar field descriptor.

    Accepts the string ``"complex"`` or an integer prime modulus in
    ``[2**20, 2**31)``. Returns the normalized descriptor or raises
    ``ValueError``. The JSON spelling ``{"prime": p}`` is unwrapped by the
    config loader before it reaches this point.
    """
    if field == COMPLEX:
        return COMPLEX
    if isinstance(field, bool) or not isinstance(field, int):
        raise ValueError(f"field must be 'complex' or a prime modulus, got {field!r}")
    if field >= _PRIME_CEILING:
        raise ValueError("prime moduli must stay below 2**31 for exact int64 products")
    if field < MIN_PRIME:
        raise ValueError(f"prime modulus must be at least 2**20, got {field}")
    if not is_prime(field):
        raise ValueError(f"{field} is not prime")
    return field


def field_token(field) -> str:
    """One-token spelling used in matrix dumps: "complex" or "prime:p"."""
    return COMPLEX if field == COMPLEX else f"prime:{field}"
