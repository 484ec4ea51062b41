"""Exact unbounded-integer arithmetic for the feasibility sieve, and the
symmetric-design parameter triple that both the sieve and the constructions
produce.

Everything here operates on plain Python ints, which are arbitrary
precision; the sieve routinely builds stabiliser orders and k-bounds in the
2^200 range, so nothing in this module may assume fixed-width arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from math import gcd, isqrt
from typing import NamedTuple

__all__ = [
    "PrimePower",
    "is_prime",
    "factorize",
    "is_perfect_square",
    "DesignParams",
    "primes_up_to",
]

# Miller-Rabin witness set; it proves primality for all n < 3.317e24.  A
# witness a that divides n rejects it: a^d mod n and each of its squares are
# 0 mod a, while 1 and n-1 are not.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_TRIAL_LIMIT = 10_000


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a plain sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((n - start) // p + 1)
    return list(compress(range(n + 1), sieve))


_TRIAL_PRIMES = primes_up_to(_TRIAL_LIMIT)


def is_prime(n: int) -> bool:
    """Deterministic primality test: below 10^4 a binary search of the
    trial-prime table, above it Miller-Rabin with a fixed witness set."""
    if n < _TRIAL_LIMIT:
        i = bisect_left(_TRIAL_PRIMES, n)
        return i < len(_TRIAL_PRIMES) and _TRIAL_PRIMES[i] == n
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A factor 1 < d < n of odd composite n (Floyd's cycle detection).

    The addend c is stepped deterministically so repeated runs factor the
    same input the same way.  ``factorize`` calls it only on cofactors
    >= 10^8 with no prime factor below 10^4, so n is never even.
    """
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical prime factorization of n >= 1: ((p1, e1), (p2, e2), ...)
    with p1 < p2 < ... and every e >= 1.

    Trial division pulls out everything below 10^4; any remaining cofactor
    is split by Miller-Rabin plus Pollard rho.  The fixed witness set proves
    primality only below 3.317*10^24; a larger cofactor that passes is a
    probable prime.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    pairs = []
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
    # a cofactor n < 10^8 is 1 or prime: either p^2 > n with every prime
    # below p divided out, or every prime below 10^4 was, and 10007^2 > 10^8
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT:
        if n > 1:
            pairs.append((n, 1))
        return tuple(pairs)
    counts: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()  # never 1: rho splits m into 1 < d < m
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(pairs) + tuple(sorted(counts.items()))


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


# The package's records are NamedTuples.  A record with checks subclasses a
# private NamedTuple base, as a NamedTuple body may not define ``__new__``.
class _DesignParams(NamedTuple):
    v: int
    k: int
    lam: int


class DesignParams(_DesignParams):
    """A symmetric (v, k, lambda) parameter triple.

    Construction checks nontriviality 2 < k < v-1 and the counting identity
    k(k-1) = lambda(v-1), so any triple that escapes the sieve is sound
    independently of the search path.  These imply lambda*v < k^2 (it reduces
    to lambda < k, so k < v) and 4*lambda*(v-1) + 1 = (2k-1)^2, a square.
    """

    __slots__ = ()

    def __new__(cls, v: int, k: int, lam: int) -> DesignParams:
        if not 2 < k < v - 1:
            raise ValueError(f"nontriviality 2 < k < v-1 fails for {(v, k, lam)}")
        if k * (k - 1) != lam * (v - 1):
            raise ValueError(f"k(k-1) = lambda(v-1) fails for {(v, k, lam)}")
        return super().__new__(cls, v, k, lam)

    def triple(self) -> tuple[int, int, int]:
        return (self.v, self.k, self.lam)

    def __str__(self) -> str:
        return f"({self.v},{self.k},{self.lam})"


class _PrimePower(NamedTuple):
    q: int
    p: int
    a: int


class PrimePower(_PrimePower):
    """A prime power q = p^a; ordering is by value."""

    __slots__ = ()

    def __new__(cls, q: int, p: int, a: int) -> PrimePower:
        if a < 1:
            raise ValueError("exponent must be >= 1")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if q != p**a:
            raise ValueError(f"{q} != {p}^{a}")
        return super().__new__(cls, q, p, a)

    @classmethod
    def of(cls, p: int, a: int) -> "PrimePower":
        return cls(p**a, p, a)

    @classmethod
    def from_value(cls, q: int) -> "PrimePower":
        pairs = factorize(q)
        if len(pairs) != 1:
            raise ValueError(f"{q} is not a prime power")
        p, a = pairs[0]
        return cls(q, p, a)
