import random
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psu4designs.exactmath import (
    Factorization,
    PrimePower,
    factorize,
    gcd,
    is_perfect_square,
    is_prime,
    prime_powers_up_to,
)


def test_gcd_values():
    assert gcd(4, 3) == 1
    assert gcd(4, 4) == 4
    assert gcd(64, 44) == 4
    assert gcd(0, 0) == 0


def test_factorize_known():
    assert factorize(1440).pairs == ((2, 5), (3, 2), (5, 1))
    assert factorize(1).pairs == ()
    assert factorize(1296).pairs == ((2, 4), (3, 4))


def test_factorize_reconstructs_random():
    rng = random.Random(20250810)
    for _ in range(200):
        n = rng.randrange(1, 10**12)
        f = factorize(n)
        assert f.value == n
        assert all(is_prime(p) for p, _ in f.pairs)
        assert all(e >= 1 for _, e in f.pairs)


# Any n < 2^64, and products of small factors, so repeated primes are common.
_FACTORIZE_INPUTS = st.one_of(
    st.integers(min_value=1, max_value=2**64),
    st.lists(st.integers(min_value=2, max_value=10**5), max_size=8).map(prod),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(n=_FACTORIZE_INPUTS)
def test_factorize_property(n):
    f = factorize(n)
    assert prod(p**e for p, e in f.pairs) == n
    primes = [p for p, _ in f.pairs]
    assert primes == sorted(set(primes))
    assert all(is_prime(p) for p in primes) and all(e >= 1 for _, e in f.pairs)


def test_factorize_large_semiprime():
    f = factorize(1_000_000_007 * 998_244_353)
    assert f.pairs == ((998_244_353, 1), (1_000_000_007, 1))


def test_factorize_catalog_scale():
    # the shape of a k-bound near the top of the default scan range
    n = 2**7 * 3**5 * 7**2 * 13**18 * 61**2 * 157**2
    f = factorize(n)
    assert f.value == n
    assert f.pairs == ((2, 7), (3, 5), (7, 2), (13, 18), (61, 2), (157, 2))


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
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))
    with pytest.raises(ValueError):
        Factorization(((2, 0),))
