"""Maximal-subgroup catalog for almost simple groups with socle PSU4(q).

Sixteen case lines, each a numerical shadow of one conjugacy class of
maximal subgroups: an applicability condition on q, the order of the
written structure at SU level, and the subdegree-divisor data the sieve
consumes.  The subgroups themselves are never constructed.

Stabiliser orders are defined as (structure order at SU level) / d with
d = gcd(4, q+1); the index identity v * h0_order(q) == socle_order(q) is
the machine-checkable consistency criterion, and the closed forms in
``CLOSED_FORM_V`` cross-check it for the lines where one is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .exactmath import PrimePower

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


class CatalogError(Exception):
    """A stabiliser order inconsistent with the group order (catalog bug)."""


def socle_order(q: PrimePower) -> int:
    """|PSU4(q)| = q^6 (q^2-1)(q^3+1)(q^4-1) / gcd(4, q+1)."""
    x = q.q
    return x**6 * (x**2 - 1) * (x**3 + 1) * (x**4 - 1) // math.gcd(4, x + 1)


def out_order(q: PrimePower) -> int:
    """|Out(PSU4(q))| = 2a * gcd(4, q+1) for q = p^a."""
    return 2 * q.a * math.gcd(4, q.q + 1)


def _su_level_order(line: int, q: PrimePower, subfield: Optional[tuple[PrimePower, int]]) -> int:
    """Order of the written subgroup structure before dividing by d.

    Lines 11-16 are fixed groups dressed with a central factor: the central
    product 4o2^{1+4} has order 64, do2 has order max(d, 2), and extensions
    multiply orders.
    """
    x = q.q
    d = math.gcd(4, x + 1)
    if line == 1:  # E_q^{1+4}:SU_2(q):(q^2-1)
        return x**6 * (x**2 - 1) ** 2
    if line == 2:  # E_q^4:SL_2(q^2):(q-1)
        return x**6 * (x**4 - 1) * (x - 1)
    if line == 3:  # GU_3(q)
        return x**3 * (x**2 - 1) * (x**3 + 1) * (x + 1)
    if line == 4:  # (q+1)^3:S_4
        return 24 * (x + 1) ** 3
    if line == 5:  # SU_2(q)^2:(q+1).2
        return 2 * x**2 * (x**2 - 1) ** 2 * (x + 1)
    if line == 6:  # SL_2(q^2).(q-1).2
        return 2 * x**2 * (x**4 - 1) * (x - 1)
    if line == 7:  # SU_4(q0) with q = q0^r
        x0 = subfield[0].q
        return x0**6 * (x0**2 - 1) * (x0**3 + 1) * (x0**4 - 1)
    if line == 8:  # Sp_4(q).gcd(2,q+1)
        return math.gcd(2, x + 1) * x**4 * (x**2 - 1) * (x**4 - 1)
    if line == 9:  # SO_4^+(q).d
        return d * x**2 * (x**2 - 1) ** 2
    if line == 10:  # SO_4^-(q).d
        return d * x**2 * (x**4 - 1)
    if line == 11:  # (4o2^{1+4}).S_6
        return 64 * 720
    if line == 12:  # (4o2^{1+4}).A_6
        return 64 * 360
    if line == 13:  # (do2).PSL_2(7)
        return max(d, 2) * 168
    if line == 14:  # (do2).A_7
        return max(d, 2) * 2520
    if line == 15:  # 4_2.PSL_3(4)
        return 4 * 20160
    if line == 16:  # (do2).PSU_4(2)
        return max(d, 2) * 25920
    raise ValueError(f"no case line {line}")


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
    out = []
    for r in range(3, q.a + 1, 2):
        if q.a % r == 0 and all(r % f for f in range(3, r, 2)):
            out.append((PrimePower.of(q.p, q.a // r), r))
    return out


def _applies(line: int, q: PrimePower) -> bool:
    x, p, a = q.q, q.p, q.a
    if line in (1, 2, 3, 4, 8):
        return True
    if line == 5:
        return x >= 3
    if line == 6:
        return x >= 4
    if line == 7:
        return bool(_subfield_decompositions(q))
    if line == 9:
        return x >= 5 and p != 2
    if line == 10:
        return p != 2
    if line == 11:
        return a == 1 and x % 8 == 7
    if line == 12:
        return a == 1 and x % 8 == 3
    if line == 13:
        return a == 1 and x % 7 in (3, 5, 6) and x != 3
    if line == 14:
        return a == 1 and x % 7 in (3, 5, 6)
    if line == 15:
        return x == 3
    if line == 16:
        return a == 1 and x % 6 == 5
    raise ValueError(f"no case line {line}")


@dataclass(frozen=True)
class SubgroupCase:
    """One case line, optionally bound to a subfield decomposition (line 7)."""

    line: int
    parabolic: bool
    subfield: Optional[tuple[PrimePower, int]] = None

    def su_level_order(self, q: PrimePower) -> int:
        return _su_level_order(self.line, q, self.subfield)

    def h0_order(self, q: PrimePower) -> int:
        su = self.su_level_order(q)
        d = math.gcd(4, q.q + 1)
        if su % d:
            raise CatalogError(
                f"line {self.line}: structure order {su} not divisible by d={d} at q={q.q}"
            )
        return su // d

    def point_count(self, q: PrimePower) -> int:
        order = socle_order(q)
        h0 = self.h0_order(q)
        if order % h0:
            raise CatalogError(
                f"line {self.line}: |H0|={h0} does not divide |X|={order} at q={q.q}"
            )
        return order // h0

    def k_divisor_bound(self, q: PrimePower) -> int:
        return out_order(q) * self.h0_order(q)

    def subdegree_divisors(self, q: PrimePower) -> list[int]:
        """Known divisors D with: some subdegree of G divides D.

        For the parabolic lines the entry is the p-part q^6; the sieve
        narrows it with gcd(q^6, v-1) before applying k | lambda*D.
        """
        x = q.q
        if self.line in (1, 2):
            return [x**6]
        if self.line == 3:
            return [(x + 1) * (x**3 + 1)]
        if self.line == 5:
            return [2 * (x**2 - 1) ** 2]
        if self.line == 6:
            return [2 * (x**4 - 1)]
        return []


def _make_case(line: int, subfield: Optional[tuple[PrimePower, int]] = None) -> SubgroupCase:
    return SubgroupCase(line, line in PARABOLIC_LINES, subfield)


def cases_for(q: PrimePower) -> list[SubgroupCase]:
    """The case lines applicable at q, line 7 once per (q0, r) decomposition."""
    out = []
    for line in LINES:
        if line == 7:
            for dec in _subfield_decompositions(q):
                out.append(_make_case(7, dec))
        elif _applies(line, q):
            out.append(_make_case(line))
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
