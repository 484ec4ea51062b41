import math

import pytest
from helpers import (
    prime_powers_up_to,
    reference_cases_for,
    reference_su_level_order,
    reference_subdegree_divisors,
)

from psu4designs import catalog, sieve
from psu4designs.catalog import (
    CLOSED_FORM_V,
    CatalogError,
    case_for,
    cases_for,
    out_order,
    socle_order,
)
from psu4designs.exactmath import PrimePower

Q2 = PrimePower.of(2, 1)
Q3 = PrimePower.of(3, 1)
Q4 = PrimePower.of(2, 2)
Q5 = PrimePower.of(5, 1)
Q8 = PrimePower.of(2, 3)


def test_socle_orders():
    assert socle_order(Q2) == 25920
    assert socle_order(Q3) == 3265920
    assert socle_order(Q4) == 1018368000


def test_out_orders():
    assert out_order(Q2) == 2
    assert out_order(Q3) == 8
    assert out_order(Q4) == 4


def test_cases_at_q2():
    assert [c.line for c in cases_for(Q2)] == [1, 2, 3, 4, 8]


def test_cases_at_q3():
    lines = [c.line for c in cases_for(Q3)]
    for line in (4, 5, 12, 14, 15):
        assert line in lines
    for line in (6, 9, 13):
        assert line not in lines


def test_line7_bound_to_decomposition():
    cases = [c for c in cases_for(Q8) if c.line == 7]
    assert len(cases) == 1
    q0, r = cases[0].subfield
    assert (q0.q, r) == (2, 3)


def test_line7_double_decomposition_needs_disambiguation():
    q = PrimePower.of(2, 15)
    decs = [(c.subfield[0].q, c.subfield[1]) for c in cases_for(q) if c.line == 7]
    assert decs == [(32, 3), (8, 5)]
    with pytest.raises(ValueError):
        case_for(7, q)
    chosen = case_for(7, q, (PrimePower.of(2, 3), 5))
    assert chosen.subfield[1] == 5
    with pytest.raises(ValueError, match="line 5 is not applicable at q=2"):
        case_for(5, Q2)
    with pytest.raises(ValueError, match="line 7 at q=8 has no decomposition"):
        case_for(7, Q8, (Q2, 5))


def test_point_counts():
    assert case_for(1, Q2).point_count(Q2) == 45
    assert case_for(4, Q3).point_count(Q3) == 8505
    assert case_for(6, Q4).point_count(Q4) == 41600
    at_q2 = [case_for(line, Q2).point_count(Q2) for line in (1, 2, 3, 4, 8)]
    assert at_q2 == [45, 27, 40, 40, 36]


def test_k_divisor_bounds():
    assert case_for(8, Q2).k_divisor_bound(Q2) == 1440
    assert case_for(4, Q3).k_divisor_bound(Q3) == 3072
    assert case_for(4, Q8).k_divisor_bound(Q8) == 104976
    assert case_for(1, Q2).k_divisor_bound(Q2) == 1152
    assert case_for(2, Q2).k_divisor_bound(Q2) == 1920


def test_subdegree_divisors():
    assert case_for(3, Q2).subdegree_divisors(Q2) == [27]
    assert case_for(6, Q4).subdegree_divisors(Q4) == [510]
    assert case_for(9, Q5).subdegree_divisors(Q5) == []
    assert case_for(1, Q2).subdegree_divisors(Q2) == [64]
    assert case_for(1, Q2).parabolic and case_for(2, Q2).parabolic
    assert not case_for(3, Q2).parabolic


def test_master_consistency_up_to_64():
    # h0 divides the socle order exactly for every applicable line 1-10,
    # and the quotient matches the closed form where one is stated
    for q in prime_powers_up_to(64):
        for case in cases_for(q):
            if case.line > 10:
                continue
            v = case.point_count(q)  # raises CatalogError on inconsistency
            form = CLOSED_FORM_V.get(case.line)
            if form is not None and case.line != 7:
                import math

                assert v == form(q.q, math.gcd(4, q.q + 1)), (case.line, q.q)


def test_line8_parity_split():
    even = case_for(8, Q4).point_count(Q4)
    assert even == 4**2 * (4**3 + 1)
    odd = case_for(8, Q3).point_count(Q3)
    assert odd == 3**2 * (3**3 + 1) // 2


def test_line13_not_at_q3():
    assert all(c.line != 13 for c in cases_for(Q3))
    q5 = PrimePower.of(5, 1)
    assert any(c.line == 13 for c in cases_for(q5))


def _su_at(q_value, su):
    """Line 1's SU-level order, replaced by su(d) at q = q_value alone."""
    real = catalog._ROWS[1].su_order
    return lambda x, d, x0: su(d) if x == q_value else real(x, d, x0)


# bad rows: (q, SU-level order of line 1, the CatalogError it must raise)
_BAD_ROWS = [
    # d = 4 at q = 3, and 2 is not a multiple of it
    (Q3, _su_at(3, lambda d: 2), "structure order 2 not divisible by d=4 at q=3"),
    # d = 1 at q = 2, and 7 does not divide |X| = 25920
    (Q2, _su_at(2, lambda d: 7 * d), r"\|H0\|=7 does not divide \|X\|=25920 at q=2"),
]


def test_inconsistent_order_detected(monkeypatch):
    """Each bad row raises through every path that reads line 1's numbers at
    q, and a scan restricted to another line never reads them."""
    for q, su_order, message in _BAD_ROWS:
        monkeypatch.setitem(catalog._ROWS, 1, catalog._ROWS[1]._replace(su_order=su_order))
        case = case_for(1, q)
        paths = [
            case.point_count,
            case.k_divisor_bound,
            lambda q: sieve.scan_case(1, q),
            lambda q: sieve.scan_all(q.p, q.a),
        ]
        for path in paths:
            with pytest.raises(CatalogError, match=message):
                path(q)
        assert sieve.scan_all(q.p, q.a, lines=[8]).outcomes
        monkeypatch.undo()


def test_rows_match_reference_chains():
    """Each line's row gives what the replaced ``if line ==`` chains gave, at
    every prime power up to 10^4; at 2^15 and 3^15, whose line 7 has two
    subfield decompositions each; and at 2^21 and 2^25."""
    extra = [PrimePower.of(p, a) for p, a in ((2, 15), (3, 15), (2, 21), (2, 25))]
    qs = prime_powers_up_to(10**4) + extra
    for q in qs:
        cases = cases_for(q)
        want = reference_cases_for(q)
        assert [(c.line, c.parabolic, c.subfield) for c in cases] == want, q.q
        d = math.gcd(4, q.q + 1)
        for case in cases:
            su = reference_su_level_order(case.line, q, case.subfield)
            h0, rest = divmod(su, d)
            assert rest == 0
            assert case.point_count(q) == socle_order(q) // h0
            assert case.k_divisor_bound(q) == out_order(q) * h0
            assert case.subdegree_divisors(q) == reference_subdegree_divisors(case.line, q)
