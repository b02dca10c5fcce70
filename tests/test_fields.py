import pytest

from iafeas.fields import DEFAULT_PRIME, is_prime, validate_field

from helpers import trial_division_is_prime

# every Carmichael number below 10**6 (OEIS A002997): composites that fool
# the plain Fermat test in every base coprime to them
CARMICHAEL_BELOW_1E6 = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
    46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401,
    172081, 188461, 252601, 278545, 294409, 314821, 334153, 340561, 399001,
    410041, 449065, 488881, 512461, 530881, 552721, 656601, 658801, 670033,
    748657, 825265, 838201, 852841, 997633,
)


def test_is_prime_matches_trial_division():
    ranges = (
        range(0, 2000),
        range((1 << 20) - 2000, (1 << 20) + 2000),
        range(DEFAULT_PRIME - 60, DEFAULT_PRIME + 1),
    )
    for n in (n for r in ranges for n in r):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_rejects_carmichael_numbers():
    for n in CARMICHAEL_BELOW_1E6:
        assert not trial_division_is_prime(n)
        assert pow(2, n - 1, n) == 1  # a Fermat liar
        assert not is_prime(n), n


def test_is_prime_refuses_numbers_beyond_its_exact_range():
    with pytest.raises(ValueError):
        is_prime(3_215_031_751)  # the least strong pseudoprime to bases 2, 3, 5, 7


def test_validate_field_accepts_primes_in_range_only():
    assert validate_field(DEFAULT_PRIME) == DEFAULT_PRIME
    assert validate_field(1048583) == 1048583
    for bad in (1 << 20, 1048581, DEFAULT_PRIME - 2, 1 << 31, 101, 6):
        with pytest.raises(ValueError):
            validate_field(bad)


def test_validate_field_runs_miller_rabin_once_per_modulus():
    validate_field(DEFAULT_PRIME)
    before = is_prime.cache_info()
    assert validate_field(DEFAULT_PRIME) == DEFAULT_PRIME
    after = is_prime.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
