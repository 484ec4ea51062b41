"""Arithmetic feasibility sieve over the PSU4(q) maximal-subgroup catalog.

For each (case line, q) the sieve walks the residues of k mod v-1 that (i)
allows, and keeps the k dividing the k-bound 2a*d*|H0| that pass the
symmetric-design constraints:

  (i)   (v-1) | k(k-1), which fixes lambda = k(k-1)/(v-1),
  (ii)  lambda < k,
  (iii) lambda*v < k^2,
  (iv)  4*lambda*(v-1) + 1 is a perfect square,
  (v)   k | lambda*D for each subdegree divisor D (for the parabolic lines
        D is first narrowed to gcd(D, v-1)),
  (vi)  for a non-parabolic stabiliser, gcd(p, v-1) = 1 must hold at all.

Only (i), (v) and (vi) are tested: the residue walk yields only k with
2 < k < v-1, and for those (ii)-(iv) are identities.  (ii) and (iii) both
reduce to k < v, and 4*lambda*(v-1) + 1 = 4k(k-1) + 1 = (2k-1)^2.
On every candidate ``DesignParams`` checks nontriviality and the counting
identity k(k-1) = lambda(v-1), which imply (ii)-(iv) in the same way.

No lower bound beyond lambda >= 1 is imposed, so the scan is deliberately
conservative: surviving parameter triples are classified against the known
designs at q=2, and anything else feasible is reported as unresolved rather
than silently discarded.  The sieve never claims a nonexistence it cannot
certify arithmetically.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from . import catalog
from .catalog import FIXED_GROUP_LINES, SubgroupCase, case_for
from .exactmath import DesignParams, PrimePower, factorize, primes_up_to

__all__ = [
    "CaseOutcome",
    "ScanReport",
    "feasible_candidates",
    "scan_case",
    "scan_all",
    "bound_table",
    "bound_tables",
    "ELIMINATED",
    "SURVIVOR",
    "UNRESOLVED",
    "KNOWN_DESIGN_PARAMS",
]

# outcome statuses
ELIMINATED = "eliminated"
SURVIVOR = "survivor"
UNRESOLVED = "unresolved"

# rejection / elimination reason codes; NO_K_DIVISOR counts the residues k
# allowed by (v-1) | k(k-1) that do not divide the k-bound
NO_K_DIVISOR = "NO_K_DIVISOR"
SUBDEG_FAIL = "SUBDEG_FAIL"
TITS_FAIL = "TITS_FAIL"
CUBE_PREFILTER = "CUBE_PREFILTER"

# parameter triples of the known flag-transitive point-primitive designs,
# all at q=2
KNOWN_DESIGN_PARAMS = frozenset({(45, 12, 3), (40, 27, 18), (36, 15, 6)})


def _k_search(
    v: int, k_bound: int, subdeg: list[int], p: int, parabolic: bool
) -> tuple[list[tuple[DesignParams, dict]], dict[str, int], bool]:
    """(candidates, rejection counts, tits violated) of one case."""
    if v < 4:
        raise ValueError("v must be >= 4")
    if k_bound < 1:
        raise ValueError("k_bound must be >= 1")
    if not parabolic and math.gcd(p, v - 1) != 1:
        return [], {}, True
    vm1 = v - 1
    shared = math.gcd(k_bound, vm1)
    if shared == 1:
        # a gcd of 1 leaves only the residue k = 1, which k > 2 rules out
        return [], {}, False
    effective = [math.gcd(d, vm1) for d in subdeg] if parabolic else subdeg
    rejections: dict[str, int] = {}
    candidates: list[tuple[DesignParams, dict]] = []
    # gcd(k, k-1) = 1, so each prime power g = r^e exactly dividing v-1
    # divides k or k-1, and k only if g | k_bound.  The CRT idempotent
    # E_g = m*(m^-1 mod g), m = (v-1)/g, is 1 mod g and 0 mod m, so k mod v-1
    # is 1 - (sum of E_g over the g dividing k): one inverse per prime, and
    # as 2 < k < v-1 each residue is at most one k.  Only gcd(k_bound, v-1)
    # is factored: a g dividing k_bound is the r-part of that gcd, and a
    # smaller r-part leaves r | m, which skips r.
    residues = [1]
    for r, e in factorize(shared):
        g = r**e
        m = vm1 // g
        if m % r:
            idem = m * pow(m, -1, g)
            residues += [(x - idem) % vm1 for x in residues]
    for k in sorted(residues):
        if k <= 2:
            continue
        if k_bound % k:
            rejections[NO_K_DIVISOR] = rejections.get(NO_K_DIVISOR, 0) + 1
            continue
        lam = k * (k - 1) // vm1
        if any(lam * d % k for d in effective):
            rejections[SUBDEG_FAIL] = rejections.get(SUBDEG_FAIL, 0) + 1
            continue
        checks = [
            {"bound": d_raw, "applied": d_eff, "multiplier": lam * d_eff // k}
            for d_raw, d_eff in zip(subdeg, effective)
        ]
        trace = {"square_root": 2 * k - 1, "subdegree_checks": checks}
        candidates.append((DesignParams(v, k, lam), trace))
    return candidates, rejections, False


def feasible_candidates(
    v: int, k_bound: int, subdeg: list[int], p: int, parabolic: bool
) -> list[tuple[DesignParams, dict]]:
    """The (k, lambda) candidates surviving constraints (i)-(vi), ascending in k."""
    return _k_search(v, k_bound, subdeg, p, parabolic)[0]


class CaseOutcome(NamedTuple):
    """Elimination certificate or candidate list for one (case, q) pair."""

    line: int
    q: PrimePower
    v: int
    k_bound: int
    status: str
    reason: Optional[str]
    candidates: list[tuple[DesignParams, dict]]
    rejections: dict[str, int]
    subfield: Optional[tuple[PrimePower, int]] = None

    def sort_key(self) -> tuple:
        q0 = self.subfield[0].q if self.subfield else 0
        return (self.line, self.q.q, q0)


def scan_case(
    line: int, q: PrimePower, subfield: Optional[tuple[PrimePower, int]] = None
) -> CaseOutcome:
    """Run the sieve on one applicable (line, q) pair."""
    ((case, v, k_bound, subdeg),) = catalog._case_numbers(q, [case_for(line, q, subfield)])
    return _scan_instance(case, q, v, k_bound, subdeg)


def _scan_instance(
    case: SubgroupCase, q: PrimePower, v: int, k_bound: int, subdeg: list[int]
) -> CaseOutcome:
    # cube test |X| <= |Out|^2 |H0|^3 of the fixed-group lines (paper table 9):
    # v = |X|/|H0| and the k-bound is |Out|*|H0|, so it fails exactly when v >
    # k-bound^2, and then each k > 1 dividing the bound has 0 < k(k-1) < v-1
    if case.line in FIXED_GROUP_LINES and v > k_bound**2:
        candidates, rejections, reason = [], {}, CUBE_PREFILTER
    else:
        candidates, rejections, tits_violated = _k_search(
            v, k_bound, subdeg, q.p, case.parabolic
        )
        # an eliminated case is named by the deepest stage any k reached
        deepest = SUBDEG_FAIL if SUBDEG_FAIL in rejections else NO_K_DIVISOR
        reason = TITS_FAIL if tits_violated else deepest
    status = ELIMINATED
    if candidates:
        for params, trace in candidates:
            known = q.q == 2 and params.triple() in KNOWN_DESIGN_PARAMS
            trace["classification"] = SURVIVOR if known else UNRESOLVED
        classes = {trace["classification"] for _, trace in candidates}
        status = UNRESOLVED if UNRESOLVED in classes else SURVIVOR
        reason = None
    return CaseOutcome(
        case.line, q, v, k_bound, status, reason, candidates, rejections, case.subfield
    )


class ScanReport(NamedTuple):
    """All case outcomes over a (p, a) range, with aggregate candidate lists.

    Each outcome is a pure function of its own (line, q), so the report is
    independent of evaluation order; outcomes are stored sorted by
    (line, q, q0) and serialise deterministically.
    """

    outcomes: list[CaseOutcome]

    @property
    def survivors(self) -> list[tuple[int, int, tuple[int, int, int]]]:
        return self._aggregate(SURVIVOR)

    @property
    def unresolved(self) -> list[tuple[int, int, tuple[int, int, int]]]:
        return self._aggregate(UNRESOLVED)

    def _aggregate(self, cls: str) -> list[tuple[int, int, tuple[int, int, int]]]:
        out = []
        for oc in self.outcomes:
            for params, trace in oc.candidates:
                if trace.get("classification") == cls:
                    out.append((oc.line, oc.q.q, params.triple()))
        return out


def scan_range(p_max: int, a_max: int) -> list[PrimePower]:
    """Prime powers p^a with p <= p_max and a <= a_max, sorted by value."""
    if p_max < 2 or a_max < 1:
        raise ValueError("need p_max >= 2 and a_max >= 1")
    qs = [
        PrimePower.of(p, a)
        for p in primes_up_to(p_max)
        for a in range(1, a_max + 1)
    ]
    qs.sort()
    return qs


def scan_all(p_max: int, a_max: int, lines: Optional[list[int]] = None) -> ScanReport:
    """Sieve every applicable (line, q) with p <= p_max, a <= a_max, on the
    given case lines (all of them when lines is None)."""
    wanted = catalog.LINES if lines is None else tuple(lines)
    if unknown := [line for line in wanted if line not in catalog.LINES]:
        raise ValueError(f"unknown case lines {unknown!r}: the lines are 1-16")
    outcomes = []
    for q in scan_range(p_max, a_max):
        cases = [case for case in catalog.cases_for(q) if case.line in wanted]
        for case, v, k_bound, subdeg in catalog._case_numbers(q, cases):
            outcomes.append(_scan_instance(case, q, v, k_bound, subdeg))
    outcomes.sort(key=CaseOutcome.sort_key)
    return ScanReport(outcomes)


# ---------------------------------------------------------------------------
# Bound-table reproduction.
#
# Tables 3 and 9 read the scan: line 4's v and k-bound, and the fixed-group
# cases past the cube prefilter.  Tables 4, 6, 7 and 8 are q-range cut-offs
# from divisibility inequalities, evaluated exactly.
# ---------------------------------------------------------------------------


def _t4_holds(x: int, a: int) -> bool:
    # line 5 cut-off: (q^2-q+1)(q^2+1) < 160*a*q^3
    return (x * x - x + 1) * (x * x + 1) < 160 * a * x**3


def _t6_holds(x: int, a: int) -> bool:
    # line 6 cut-off: (q^3+1)(q+1) < 96*a*q^3
    return (x**3 + 1) * (x + 1) < 96 * a * x**3


def _t7_holds(x: int, a: int) -> bool:
    # line 8, q = 2^a: v-1 < 2*e*a^2*(d(q) + e*a*h(q)) with
    # d(q) = q^4+q^3-q^2-q, h(q) = q^2-1, e = gcd(5, q-2)
    v = x * x * (x**3 + 1)
    e = math.gcd(5, x - 2)
    dq = x**4 + x**3 - x * x - x
    hq = x * x - 1
    return v - 1 < 2 * e * a * a * (dq + e * a * hq)


def _t8_holds(x: int, a: int) -> bool:
    # line 8, q odd: v-1 < 2*a^2*s*(d(q) + 2*a*s*f(q)*h(q)) with
    # d(q) = 8q^3-2q^2-6q, h(q) = 2q^3-2q^2-2q, f(q) = q-1,
    # s = gcd(q+2, 5)*gcd(q-1, 7)
    v = x * x * (x**3 + 1) // 2
    s = math.gcd(x + 2, 5) * math.gcd(x - 1, 7)
    f = x - 1
    dq = 8 * x**3 - 2 * x * x - 6 * x
    hq = 2 * x**3 - 2 * x * x - 2 * x
    return v - 1 < 2 * a * a * s * (dq + 2 * a * s * f * hq)


# Every cut-off inequality fails once q = p^a > _Q_CEILING * a^3:
#   t4: (q^2-q+1)(q^2+1) > q^4 - q^3, so it fails once q >= 160a + 1;
#   t6: (q^3+1)(q+1) > q^4 + q^3, so it fails once q >= 96a;
#   t7: e <= 5, d(q) < q^4 + q^3 and h(q) < q^2 bound the right-hand side
#       by 10a^2 q^4 (1 + 1/q + 5a/q^2) < q^5 <= v-1 once q > 28a^3;
#   t8: s <= 35, d(q) < 8q^3 and f(q)h(q) < 2q^4 bound the right-hand side
#       by 560a^2 q^3 + 9800a^3 q^4 < 10010a^3 q^4 (q >= 3), while
#       v-1 >= q^5/2 - 1, so it fails once q > 20020a^3 + 2/q^4.
# The a with p^a <= _Q_CEILING * a^3 are 1, 2, ..., so _cap stops at the
# first a above the ceiling: for p >= 11, p^a / a^3 grows with a
# (p (a/(a+1))^3 >= 11/8 > 1); for p <= 7, every a < 4 has p^a <= 343 <
# _Q_CEILING, and p^a / a^3 grows for a >= 4 (p (a/(a+1))^3 >= 2 * 0.512 > 1).
_Q_CEILING = 20021


def _cap(holds, p: int) -> int:
    """Largest a with holds(p^a, a); 0 when even a=1 fails."""
    best = 0
    a = 1
    while p**a <= _Q_CEILING * a**3:
        if holds(p**a, a):
            best = a
        a += 1
    return best


def _caps(holds, primes: list[int]) -> dict[int, int]:
    """{p: _cap(holds, p)} over the primes whose cap is nonzero."""
    return {p: c for p in primes if (c := _cap(holds, p))}


def _table9() -> dict[int, list[int]]:
    # every fixed-group line needs a = 1, and outcomes come sorted by q
    lines: dict[int, list[int]] = {line: [] for line in FIXED_GROUP_LINES}
    for oc in scan_all(200, 1, list(FIXED_GROUP_LINES)).outcomes:
        if oc.reason != CUBE_PREFILTER:
            lines[oc.line].append(oc.q.q)
    return lines


# Tables 4, 6 and 8 stop at the ceiling, as a prime above it fails at every
# exponent; table 8's s factor makes pass/fail non-monotone in p, so it tries
# every odd prime.  Table 7 has every 1 < a <= a_max, v = q^2(q^3+1), q = 2^a.
_TABLES = {
    "3": lambda: {
        oc.q.q: (oc.v, oc.k_bound)
        for oc in (scan_case(4, PrimePower.from_value(x)) for x in (2, 3, 4, 5, 8))
    },
    "4": lambda: _caps(_t4_holds, primes_up_to(_Q_CEILING)),
    "6": lambda: _caps(_t6_holds, primes_up_to(_Q_CEILING)),
    "7": lambda: {
        2**a: (4**a * (8**a + 1), math.gcd(5, 2**a - 2) * a)
        for a in range(2, _cap(_t7_holds, 2) + 1)
    },
    "8": lambda: _caps(_t8_holds, primes_up_to(_Q_CEILING)[1:]),
    "9": _table9,
}


def bound_table(tid: str) -> dict:
    """Bound table ``tid`` as the {row key: value} rows ``tables`` compares.

      "3" - q -> (v, k-bound) of line 4, q in {2,3,4,5,8}
      "4" - p -> max a with the line-5 cut-off holding, for p with a >= 1
      "6" - p -> max a with the line-6 cut-off holding, for p with a >= 1
      "7" - q -> (v, m-bound) of line 8 with q = 2^a, 1 < a <= a_max
      "8" - odd p -> max a with the line-8 (q odd) cut-off holding, a >= 1
      "9" - fixed-group line -> the primes q <= 200 passing its cube test
    """
    return _TABLES[tid]()


def bound_tables() -> dict[str, dict]:
    """Every bound table, keyed by id (see ``bound_table``)."""
    return {tid: table() for tid, table in _TABLES.items()}
