"""Exact unbounded-integer arithmetic for the feasibility sieve, and the
symmetric-design parameter triple that both the sieve and the constructions
produce.

Everything here operates on plain Python ints, which are arbitrary
precision; the sieve routinely builds stabiliser orders and k-bounds in the
2^200 range, so nothing in this module may assume fixed-width arithmetic.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt
from typing import NamedTuple

__all__ = [
    "PrimePower",
    "Factorization",
    "is_prime",
    "factorize",
    "is_perfect_square",
    "DesignParams",
    "primes_up_to",
    "prime_powers_up_to",
]

# Miller-Rabin witness set, also the small primes is_prime divides out
# first; it proves primality for all n < 3.317e24.
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
    """Deterministic primality test (Miller-Rabin with a fixed witness set)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
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
    """A nontrivial factor of odd composite n (Floyd's cycle detection).

    The addend c is stepped deterministically so repeated runs factor the
    same input the same way.
    """
    if n % 2 == 0:
        return 2
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


# The package's records are NamedTuples.  A record with checks subclasses a
# private NamedTuple base, as a NamedTuple body may not define ``__new__``.
class _Factorization(NamedTuple):
    pairs: tuple[tuple[int, int], ...]


class Factorization(_Factorization):
    """Canonical prime factorization: ((p1, e1), (p2, e2), ...) with p1 < p2 < ..."""

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int], ...]) -> Factorization:
        last = 1
        for p, e in pairs:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            last = p
        return super().__new__(cls, pairs)

    @property
    def value(self) -> int:
        n = 1
        for p, e in self.pairs:
            n *= p**e
        return n


def factorize(n: int) -> Factorization:
    """Canonical prime factorization of n >= 1.

    Trial division pulls out everything below 10^4; any remaining cofactor
    is split by Miller-Rabin plus Pollard rho.  The fixed witness set proves
    primality only below 3.317*10^24; a larger cofactor that passes is a
    probable prime.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    counts: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(tuple(sorted(counts.items())))


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


class _DesignParams(NamedTuple):
    v: int
    k: int
    lam: int


class DesignParams(_DesignParams):
    """A symmetric (v, k, lambda) parameter triple.

    Construction re-checks the arithmetic identities, so any triple that
    escapes the sieve is sound independently of the search path.
    """

    __slots__ = ()

    def __new__(cls, v: int, k: int, lam: int) -> DesignParams:
        if not 2 < k < v - 1:
            raise ValueError(f"nontriviality 2 < k < v-1 fails for {(v, k, lam)}")
        if k * (k - 1) != lam * (v - 1):
            raise ValueError(f"k(k-1) = lambda(v-1) fails for {(v, k, lam)}")
        if lam * v >= k * k:
            raise ValueError(f"lambda*v < k^2 fails for {(v, k, lam)}")
        if not is_perfect_square(4 * lam * (v - 1) + 1):
            raise ValueError(f"4*lambda*(v-1)+1 is not a square for {(v, k, lam)}")
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
        f = factorize(q)
        if len(f.pairs) != 1:
            raise ValueError(f"{q} is not a prime power")
        p, a = f.pairs[0]
        return cls(q, p, a)

    def __str__(self) -> str:
        return str(self.q)


def prime_powers_up_to(q_max: int) -> list[PrimePower]:
    """All prime powers p^a <= q_max with a >= 1, sorted by value."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    out = []
    for p in primes_up_to(q_max):
        q, a = p, 1
        while q <= q_max:
            out.append(PrimePower(q, p, a))
            q *= p
            a += 1
    out.sort()
    return out
