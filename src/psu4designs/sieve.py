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

No lower bound beyond lambda >= 1 is imposed, so the scan is deliberately
conservative: surviving parameter triples are classified against the known
designs at q=2, and anything else feasible is reported as unresolved rather
than silently discarded.  The sieve never claims a nonexistence it cannot
certify arithmetically.
"""

from __future__ import annotations

import math
from collections import Counter
from math import isqrt
from typing import NamedTuple, Optional

from . import catalog
from .catalog import SubgroupCase, case_for, cases_for, out_order, socle_order
from .exactmath import DesignParams, PrimePower, factorize, primes_up_to

__all__ = [
    "CaseOutcome",
    "ScanReport",
    "feasible_candidates",
    "cube_prefilter",
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

# rejection / elimination reason codes
NO_K_DIVISOR = "NO_K_DIVISOR"
LAMBDA_BOUND_FAIL = "LAMBDA_BOUND_FAIL"
SQUARE_FAIL = "SQUARE_FAIL"
SUBDEG_FAIL = "SUBDEG_FAIL"
TITS_FAIL = "TITS_FAIL"
CUBE_PREFILTER = "CUBE_PREFILTER"

# stage depth of the per-k rejection codes; an eliminated case is summarised
# by the deepest stage any k reached.  NO_K_DIVISOR counts the residues k
# allowed by (v-1) | k(k-1) that do not divide the k-bound
_STAGE = {NO_K_DIVISOR: 0, LAMBDA_BOUND_FAIL: 1, SQUARE_FAIL: 2, SUBDEG_FAIL: 3}

# parameter triples of the known flag-transitive point-primitive designs,
# all at q=2
KNOWN_DESIGN_PARAMS = frozenset({(45, 12, 3), (40, 27, 18), (36, 15, 6)})


class FeasibilityResult(NamedTuple):
    candidates: list[tuple[DesignParams, dict]]
    rejections: dict[str, int]
    tits_violated: bool = False


def _k_search(
    v: int, k_bound: int, subdeg: list[int], p: int, parabolic: bool
) -> FeasibilityResult:
    if v < 4:
        raise ValueError("v must be >= 4")
    if k_bound < 1:
        raise ValueError("k_bound must be >= 1")
    if not parabolic and math.gcd(p, v - 1) != 1:
        return FeasibilityResult([], {}, tits_violated=True)
    vm1 = v - 1
    effective = [math.gcd(d, vm1) if parabolic else d for d in subdeg]
    rejections: Counter[str] = Counter()
    candidates: list[tuple[DesignParams, dict]] = []
    # gcd(k, k-1) = 1, so each prime power r^e exactly dividing v-1 divides k
    # or k-1, and k only if r^e | k_bound.  By CRT, k mod v-1 is a*(a^-1 mod
    # (v-1)/a) for a product a of such r^e; as 2 < k < v-1, each residue is at
    # most one k.  Only k_bound is factored, never v-1.
    parts = [1]
    for r, e in factorize(k_bound).pairs:
        g = math.gcd(vm1, r**e)
        if g > 1 and (vm1 // g) % r:
            parts += [a * g for a in parts]
    for k in sorted(a * pow(a, -1, vm1 // a) % vm1 for a in parts):
        if k <= 2:
            continue
        if k_bound % k:
            rejections[NO_K_DIVISOR] += 1
            continue
        lam = k * (k - 1) // vm1
        if lam >= k or lam * v >= k * k:
            rejections[LAMBDA_BOUND_FAIL] += 1
            continue
        disc = 4 * lam * vm1 + 1
        root = isqrt(disc)
        if root * root != disc:
            rejections[SQUARE_FAIL] += 1
            continue
        checks = []
        ok = True
        for d_raw, d_eff in zip(subdeg, effective):
            if (lam * d_eff) % k:
                ok = False
                break
            checks.append(
                {"bound": d_raw, "applied": d_eff, "multiplier": lam * d_eff // k}
            )
        if not ok:
            rejections[SUBDEG_FAIL] += 1
            continue
        trace = {"square_root": root, "subdegree_checks": checks}
        candidates.append((DesignParams(v, k, lam), trace))
    return FeasibilityResult(candidates, dict(rejections))


def feasible_candidates(
    v: int, k_bound: int, subdeg: list[int], p: int, parabolic: bool
) -> list[tuple[DesignParams, dict]]:
    """The (k, lambda) candidates surviving constraints (i)-(vi), ascending in k."""
    return _k_search(v, k_bound, subdeg, p, parabolic).candidates


def cube_prefilter(line: int, q: PrimePower) -> bool:
    """Order test |X| <= |Out(X)|^2 * |H0|^3 for the fixed-group lines 11-16.

    True means the case survives to the k-search.
    """
    if not 11 <= line <= 16:
        raise ValueError("cube prefilter applies to lines 11-16 only")
    case = case_for(line, q)
    return socle_order(q) <= out_order(q) ** 2 * case.h0_order(q) ** 3


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


def _classify(params: DesignParams, q: PrimePower) -> str:
    if q.q == 2 and params.triple() in KNOWN_DESIGN_PARAMS:
        return SURVIVOR
    return UNRESOLVED


def scan_case(
    line: int, q: PrimePower, subfield: Optional[tuple[PrimePower, int]] = None
) -> CaseOutcome:
    """Run the sieve on one applicable (line, q) pair."""
    case = case_for(line, q, subfield)
    return _scan_instance(case, q)


def _scan_instance(case: SubgroupCase, q: PrimePower) -> CaseOutcome:
    line = case.line
    v = case.point_count(q)
    k_bound = case.k_divisor_bound(q)
    if 11 <= line <= 16 and not cube_prefilter(line, q):
        return CaseOutcome(
            line, q, v, k_bound, ELIMINATED, CUBE_PREFILTER, [], {}, case.subfield
        )
    result = _k_search(v, k_bound, case.subdegree_divisors(q), q.p, case.parabolic)
    if result.tits_violated:
        return CaseOutcome(
            line, q, v, k_bound, ELIMINATED, TITS_FAIL, [], {}, case.subfield
        )
    if result.candidates:
        classes = []
        for params, trace in result.candidates:
            cls = _classify(params, q)
            trace["classification"] = cls
            classes.append(cls)
        status = SURVIVOR if all(c == SURVIVOR for c in classes) else UNRESOLVED
        return CaseOutcome(
            line, q, v, k_bound, status, None,
            result.candidates, result.rejections, case.subfield,
        )
    if result.rejections:
        reason = max(result.rejections, key=lambda r: _STAGE[r])
    else:
        reason = NO_K_DIVISOR
    return CaseOutcome(
        line, q, v, k_bound, ELIMINATED, reason, [], result.rejections, case.subfield
    )


class ScanReport(NamedTuple):
    """All case outcomes over a (p, a) range, with aggregate candidate lists.

    Each outcome is a pure function of its own (line, q), so the report is
    independent of evaluation order; outcomes are stored sorted by
    (line, q, q0) and serialise deterministically.
    """

    p_max: int
    a_max: int
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

    def outcome(self, line: int, q_value: int) -> CaseOutcome:
        for oc in self.outcomes:
            if oc.line == line and oc.q.q == q_value:
                return oc
        raise KeyError((line, q_value))


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
    """Sieve every applicable (line, q) with p <= p_max, a <= a_max."""
    wanted = set(lines) if lines is not None else set(catalog.LINES)
    outcomes = []
    for q in scan_range(p_max, a_max):
        for case in cases_for(q):
            if case.line in wanted:
                outcomes.append(_scan_instance(case, q))
    outcomes.sort(key=CaseOutcome.sort_key)
    return ScanReport(p_max, a_max, outcomes)


# ---------------------------------------------------------------------------
# Bound-table reproduction.
#
# Tables 4, 6, 7 and 8 are q-range cut-offs derived from divisibility
# inequalities; the inequality expressions are data of this operation and
# are evaluated exactly.
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
# For a >= 4, p^a / a^3 grows with a (p (a/(a+1))^3 >= 2 * 0.512 > 1); at
# p = 2 it falls from a = 3 to a = 4, so exponents below 4 are always tried.
_Q_CEILING = 20021


def _cap(holds, p: int) -> int:
    """Largest a with holds(p^a, a); 0 when even a=1 fails."""
    best = 0
    a = 1
    while a < 4 or p**a <= _Q_CEILING * a**3:
        if holds(p**a, a):
            best = a
        a += 1
    return best


def _table3() -> dict:
    rows = {}
    for x in (2, 3, 4, 5, 8):
        q = PrimePower.from_value(x)
        case = case_for(4, q)
        rows[x] = {"v": case.point_count(q), "k_divides": case.k_divisor_bound(q)}
    return {"rows": rows}


# tables 4, 6 and 8 stop at the ceiling: a prime above it fails at every
# exponent
def _table4() -> dict:
    return {"caps": {p: c for p in primes_up_to(_Q_CEILING) if (c := _cap(_t4_holds, p))}}


def _table6() -> dict:
    return {"caps": {p: c for p in primes_up_to(_Q_CEILING) if (c := _cap(_t6_holds, p))}}


def _table7() -> dict:
    # the cut-off is one-sided: a_max is the largest exponent where the
    # inequality holds, and every 1 < a <= a_max is tabulated
    rows = {}
    for a in range(2, _cap(_t7_holds, 2) + 1):
        x = 2**a
        rows[x] = {
            "v": x * x * (x**3 + 1),
            "m_bound": math.gcd(5, x - 2) * a,
        }
    return {"rows": rows}


def _table8() -> dict:
    # the s = gcd(q+2,5)*gcd(q-1,7) factor makes pass/fail non-monotone in p,
    # so every odd prime below the ceiling is tried
    return {"caps": {p: c for p in primes_up_to(_Q_CEILING)[1:] if (c := _cap(_t8_holds, p))}}


def _table9() -> dict:
    lines = {}
    for line in range(11, 17):
        passing = []
        for p in primes_up_to(200):
            q = PrimePower.of(p, 1)
            if any(c.line == line for c in catalog.cases_for(q)) and cube_prefilter(line, q):
                passing.append(p)
        lines[line] = passing
    return {"lines": lines}


_TABLES = {
    "3": _table3, "4": _table4, "6": _table6, "7": _table7, "8": _table8, "9": _table9,
}


def bound_table(tid: str) -> dict:
    """Recompute one golden bound table from the catalog and inequalities.

    The ids are those of the ``tables`` CLI command:
      "3" - (v, k-bound) of line 4 at q in {2,3,4,5,8}
      "4" - (p, max a) caps for line 5
      "6" - (p, max a) caps for line 6
      "7" - (q, v, m-bound) rows for line 8 with q = 2^a, 1 < a
      "8" - (p, max a) caps for line 8 with q odd
      "9" - cube-prefilter survivors per fixed-group line
    """
    return _TABLES[tid]()


def bound_tables() -> dict[str, dict]:
    """Every bound table, keyed by id (see ``bound_table``)."""
    return {tid: table() for tid, table in _TABLES.items()}
