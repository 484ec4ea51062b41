import random
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ReferenceDesignParams, prime_powers_up_to
from psu4designs.exactmath import (
    DesignParams,
    PrimePower,
    factorize,
    gcd,
    is_perfect_square,
    is_prime,
    primes_up_to,
)


def test_gcd_values():
    assert gcd(4, 3) == 1
    assert gcd(4, 4) == 4
    assert gcd(64, 44) == 4
    assert gcd(0, 0) == 0


def test_is_prime_matches_trial_division():
    """The trial-prime table below _TRIAL_LIMIT and Miller-Rabin above it
    agree with trial division, and the witness set rejects strong
    pseudoprimes to the bases up to 7, 23 and 37, Carmichael numbers, and
    multiples of a witness above the table."""
    def by_trial(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    assert [is_prime(n) for n in range(-3, 20001)] == [by_trial(n) for n in range(-3, 20001)]
    for n in (3215031751, 3825123056546413051, 318665857834031151167461,
              41041, 825265, 2 * (10**9 + 7), 41 * (10**9 + 7), 3**40, 2**89):
        assert not is_prime(n)
    assert is_prime(10007) and is_prime(1000000007) and is_prime(2**89 - 1)


def test_factorize_known():
    assert factorize(1440) == ((2, 5), (3, 2), (5, 1))
    assert factorize(1) == ()
    assert factorize(1296) == ((2, 4), (3, 4))
    # the largest prime below 10^8 passes every trial prime and is taken as
    # prime without Miller-Rabin; 10007^2 is the least cofactor rho splits
    assert factorize(99999989) == ((99999989, 1),)
    assert factorize(2 * 99999989) == ((2, 1), (99999989, 1))
    assert factorize(9973**2) == ((9973, 2),)
    assert factorize(10007**2) == ((10007, 2),)
    assert factorize(10007 * 10009) == ((10007, 1), (10009, 1))


def test_factorize_reconstructs_random():
    rng = random.Random(20250810)
    for _ in range(200):
        n = rng.randrange(1, 10**12)
        f = factorize(n)
        assert prod(p**e for p, e in f) == n
        assert all(is_prime(p) for p, _ in f)
        assert all(e >= 1 for _, e in f)


# Any n < 2^64, and products of small factors, so repeated primes are common.
_FACTORIZE_INPUTS = st.one_of(
    st.integers(min_value=1, max_value=2**64),
    st.lists(st.integers(min_value=2, max_value=10**5), max_size=8).map(prod),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(n=_FACTORIZE_INPUTS)
def test_factorize_property(n):
    f = factorize(n)
    assert prod(p**e for p, e in f) == n
    primes = [p for p, _ in f]
    assert primes == sorted(set(primes))
    assert all(is_prime(p) for p in primes) and all(e >= 1 for _, e in f)


def test_factorize_large_semiprime():
    f = factorize(1_000_000_007 * 998_244_353)
    assert f == ((998_244_353, 1), (1_000_000_007, 1))


def test_factorize_catalog_scale():
    # the shape of a k-bound near the top of the default scan range
    n = 2**7 * 3**5 * 7**2 * 13**18 * 61**2 * 157**2
    f = factorize(n)
    assert prod(p**e for p, e in f) == n
    assert f == ((2, 7), (3, 5), (7, 2), (13, 18), (61, 2), (157, 2))


def test_perfect_squares():
    assert is_perfect_square(841)
    assert is_perfect_square(0)
    assert not is_perfect_square(842)
    assert not is_perfect_square(-4)


def test_perfect_square_matches_isqrt():
    for n in range(10_000):
        assert is_perfect_square(n) == (isqrt(n) ** 2 == n)
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randrange(10**6)
        assert is_perfect_square(n) == (isqrt(n) ** 2 == n)


def test_prime_powers_up_to():
    assert [pp.q for pp in prime_powers_up_to(9)] == [2, 3, 4, 5, 7, 8, 9]
    assert [pp.q for pp in prime_powers_up_to(2)] == [2]
    by_pa = {(pp.p, pp.a): pp.q for pp in prime_powers_up_to(32)}
    assert by_pa[(2, 5)] == 32
    with pytest.raises(ValueError):
        prime_powers_up_to(1)
    assert primes_up_to(1) == []


def test_prime_power_validation():
    with pytest.raises(ValueError):
        PrimePower(12, 12, 1)  # 12 is not prime
    with pytest.raises(ValueError):
        PrimePower(8, 2, 2)  # 8 != 2^2
    with pytest.raises(ValueError):
        PrimePower.from_value(12)
    assert PrimePower.from_value(32) == PrimePower.of(2, 5)
    assert PrimePower.of(3, 2) < PrimePower.of(2, 4)  # ordered by value


def test_factorization_validation():
    for n in (0, -1):
        with pytest.raises(ValueError, match="factorize requires n >= 1"):
            factorize(n)


def _params_outcome(make, v, k, lam):
    try:
        return tuple(make(v, k, lam))
    except ValueError as exc:
        return str(exc)


def test_design_params_match_reference():
    """Nontriviality and the counting identity imply lambda*v < k^2 and the
    square condition: the same triple or the same error as the four-check
    reference, for every v <= 200, 0 <= k <= v and lambda near k(k-1)/(v-1)."""
    accepted = 0
    for v in range(2, 201):
        for k in range(v + 1):
            lam0 = k * (k - 1) // (v - 1)
            for lam in (lam0 - 1, lam0, lam0 + 1):
                got = _params_outcome(DesignParams, v, k, lam)
                assert got == _params_outcome(ReferenceDesignParams, v, k, lam)
                accepted += isinstance(got, tuple)
    assert accepted > 0
