"""Maximal-subgroup catalog for almost simple groups with socle PSU4(q).

Sixteen case lines, each a numerical shadow of one conjugacy class of
maximal subgroups and each one row of ``_ROWS``: an applicability test on
(q, p, a), the order of the written structure at SU level, and the
subdegree divisors the sieve consumes.  The subgroups themselves are never
constructed.

Stabiliser orders |H0| are defined as (structure order at SU level) / d
with d = gcd(4, q+1); the index identity v * |H0| == |X| is the
machine-checkable consistency criterion, and the closed forms in
``CLOSED_FORM_V`` cross-check it for the lines where one is known.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple, Optional

from .exactmath import PrimePower, is_prime

__all__ = [
    "CatalogError",
    "SubgroupCase",
    "socle_order",
    "out_order",
    "cases_for",
    "case_for",
    "CLOSED_FORM_V",
    "LINES",
]

LINES = range(1, 17)

# (1, 2) are the stabilisers of totally singular subspaces.
PARABOLIC_LINES = frozenset({1, 2})

# (11-16) are fixed groups, dressed with a central factor, that embed only
# for some q; the sieve puts them through the cube prefilter first.
FIXED_GROUP_LINES = range(11, 17)


class CatalogError(Exception):
    """A stabiliser order inconsistent with the group order (catalog bug)."""


def socle_order(q: PrimePower) -> int:
    """|PSU4(q)| = q^6 (q^2-1)(q^3+1)(q^4-1) / gcd(4, q+1)."""
    x = q.q
    return x**6 * (x**2 - 1) * (x**3 + 1) * (x**4 - 1) // math.gcd(4, x + 1)


def out_order(q: PrimePower) -> int:
    """|Out(PSU4(q))| = 2a * gcd(4, q+1) for q = p^a."""
    return 2 * q.a * math.gcd(4, q.q + 1)


class _Row(NamedTuple):
    """One case line: su_order(q, d, q0), applies(q, p, a), subdegrees(q).

    su_order is the order of the written structure before dividing by
    d = gcd(4, q+1); q0 is the subfield of line 7 and None elsewhere.  For
    the fixed groups the central product 4o2^{1+4} has order 64, do2 has
    order max(d, 2), and extensions multiply orders.
    """

    su_order: Callable[[int, int, Optional[int]], int]
    applies: Callable[[int, int, int], bool] = lambda x, p, a: True
    subdegrees: Callable[[int], list[int]] = lambda x: []


# Each row is commented with its written structure.
_ROWS: dict[int, _Row] = {
    # E_q^{1+4}:SU_2(q):(q^2-1)
    1: _Row(lambda x, d, x0: x**6 * (x**2 - 1) ** 2, subdegrees=lambda x: [x**6]),
    # E_q^4:SL_2(q^2):(q-1)
    2: _Row(lambda x, d, x0: x**6 * (x**4 - 1) * (x - 1), subdegrees=lambda x: [x**6]),
    # GU_3(q)
    3: _Row(lambda x, d, x0: x**3 * (x**2 - 1) * (x**3 + 1) * (x + 1),
            subdegrees=lambda x: [(x + 1) * (x**3 + 1)]),
    # (q+1)^3:S_4
    4: _Row(lambda x, d, x0: 24 * (x + 1) ** 3),
    # SU_2(q)^2:(q+1).2
    5: _Row(lambda x, d, x0: 2 * x**2 * (x**2 - 1) ** 2 * (x + 1), lambda x, p, a: x >= 3,
            lambda x: [2 * (x**2 - 1) ** 2]),
    # SL_2(q^2).(q-1).2
    6: _Row(lambda x, d, x0: 2 * x**2 * (x**4 - 1) * (x - 1), lambda x, p, a: x >= 4,
            lambda x: [2 * (x**4 - 1)]),
    # SU_4(q0) with q = q0^r, r an odd prime; some r divides a unless a is a
    # power of two
    7: _Row(lambda x, d, x0: x0**6 * (x0**2 - 1) * (x0**3 + 1) * (x0**4 - 1),
            lambda x, p, a: a & (a - 1) != 0),
    # Sp_4(q).gcd(2,q+1)
    8: _Row(lambda x, d, x0: math.gcd(2, x + 1) * x**4 * (x**2 - 1) * (x**4 - 1)),
    # SO_4^+(q).d
    9: _Row(lambda x, d, x0: d * x**2 * (x**2 - 1) ** 2, lambda x, p, a: x >= 5 and p != 2),
    # SO_4^-(q).d
    10: _Row(lambda x, d, x0: d * x**2 * (x**4 - 1), lambda x, p, a: p != 2),
    # (4o2^{1+4}).S_6
    11: _Row(lambda x, d, x0: 64 * 720, lambda x, p, a: a == 1 and x % 8 == 7),
    # (4o2^{1+4}).A_6
    12: _Row(lambda x, d, x0: 64 * 360, lambda x, p, a: a == 1 and x % 8 == 3),
    # (do2).PSL_2(7)
    13: _Row(lambda x, d, x0: max(d, 2) * 168,
             lambda x, p, a: a == 1 and x % 7 in (3, 5, 6) and x != 3),
    # (do2).A_7
    14: _Row(lambda x, d, x0: max(d, 2) * 2520, lambda x, p, a: a == 1 and x % 7 in (3, 5, 6)),
    # 4_2.PSL_3(4)
    15: _Row(lambda x, d, x0: 4 * 20160, lambda x, p, a: x == 3),
    # (do2).PSU_4(2)
    16: _Row(lambda x, d, x0: max(d, 2) * 25920, lambda x, p, a: a == 1 and x % 6 == 5),
}


# Closed forms for v(q) = |X| / |H0|, used as independent cross-checks of
# the index identity (d = gcd(4, q+1) where it appears).
CLOSED_FORM_V: dict[int, Callable[[int, int], int]] = {
    1: lambda x, d: x**5 + x**3 + x**2 + 1,
    2: lambda x, d: x**4 + x**3 + x + 1,
    3: lambda x, d: x**3 * (x - 1) * (x**2 + 1),
    4: lambda x, d: x**6 * (x - 1) ** 2 * (x**2 + 1) * (x**2 - x + 1) // 24,
    5: lambda x, d: x**4 * (x**2 - x + 1) * (x**2 + 1) // 2,
    6: lambda x, d: x**4 * (x**3 + 1) * (x + 1) // 2,
    8: lambda x, d: x**2 * (x**3 + 1) // math.gcd(2, x + 1),
    9: lambda x, d: x**4 * (x**3 + 1) * (x**2 + 1) // d,
    10: lambda x, d: x**4 * (x**3 + 1) * (x**2 - 1) // d,
}


def _subfield_decompositions(q: PrimePower) -> list[tuple[PrimePower, int]]:
    """All (q0, r) with q = q0^r and r an odd prime, ascending in r."""
    return [
        (PrimePower.of(q.p, q.a // r), r)
        for r in range(3, q.a + 1, 2)
        if q.a % r == 0 and is_prime(r)
    ]


class SubgroupCase(NamedTuple):
    """One case line, optionally bound to a subfield decomposition (line 7)."""

    line: int
    subfield: Optional[tuple[PrimePower, int]] = None

    @property
    def parabolic(self) -> bool:
        return self.line in PARABOLIC_LINES

    def point_count(self, q: PrimePower) -> int:
        return self._numbers(q)[1]

    def k_divisor_bound(self, q: PrimePower) -> int:
        return self._numbers(q)[2]

    def subdegree_divisors(self, q: PrimePower) -> list[int]:
        """Known divisors D with: some subdegree of G divides D.

        For the parabolic lines the entry is the p-part q^6; the sieve
        narrows it with gcd(q^6, v-1) before applying k | lambda*D.
        """
        return self._numbers(q)[3]

    def _numbers(self, q: PrimePower) -> tuple[SubgroupCase, int, int, list[int]]:
        (numbers,) = _case_numbers(q, [self])
        return numbers


# Immutable values shared by every q: the one case of each line but 7.
_CASES = {line: SubgroupCase(line) for line in _ROWS if line != 7}


def _case_numbers(
    q: PrimePower, cases: list[SubgroupCase]
) -> Iterator[tuple[SubgroupCase, int, int, list[int]]]:
    """(case, v, k-bound, subdegree divisors) for each given case at q.

    d = gcd(4, q+1), |X| and |Out| are worked out once for all the cases,
    and not at all when there are none; |H0| = su/d, v = |X|/|H0| and the
    k-bound is |Out|*|H0|.
    """
    if not cases:
        return
    d = math.gcd(4, q.q + 1)
    order, out = socle_order(q), out_order(q)
    for case in cases:
        row = _ROWS[case.line]
        su = row.su_order(q.q, d, case.subfield[0].q if case.subfield else None)
        if su % d:
            raise CatalogError(
                f"line {case.line}: structure order {su} not divisible by d={d} at q={q.q}"
            )
        h0 = su // d
        if order % h0:
            raise CatalogError(
                f"line {case.line}: |H0|={h0} does not divide |X|={order} at q={q.q}"
            )
        yield case, order // h0, out * h0, row.subdegrees(q.q)


def cases_for(q: PrimePower) -> list[SubgroupCase]:
    """The case lines applicable at q, line 7 once per (q0, r) decomposition."""
    out = []
    for line, row in _ROWS.items():
        if row.applies(q.q, q.p, q.a):
            if line == 7:
                out += [SubgroupCase(7, dec) for dec in _subfield_decompositions(q)]
            else:
                out.append(_CASES[line])
    return out


def case_for(line: int, q: PrimePower, subfield: Optional[tuple[PrimePower, int]] = None) -> SubgroupCase:
    """The unique applicable instance of a line at q.

    Line 7 can in principle decompose in more than one way (first a with
    two odd prime divisors is 15); then the (q0, r) pair must be passed
    explicitly.
    """
    matches = [c for c in cases_for(q) if c.line == line]
    if not matches:
        raise ValueError(f"line {line} is not applicable at q={q.q}")
    if subfield is not None:
        for c in matches:
            if c.subfield == subfield:
                return c
        raise ValueError(f"line {line} at q={q.q} has no decomposition {subfield}")
    if len(matches) > 1:
        raise ValueError(f"line {line} at q={q.q} is ambiguous; pass subfield=(q0, r)")
    return matches[0]
