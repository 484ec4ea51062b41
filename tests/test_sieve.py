import pytest
from helpers import brute_force_candidates, exhaustive_cap

from psu4designs.catalog import case_for
from psu4designs.exactmath import PrimePower, primes_up_to
from psu4designs.sieve import (
    CUBE_PREFILTER,
    ELIMINATED,
    NO_K_DIVISOR,
    SURVIVOR,
    UNRESOLVED,
    DesignParams,
    bound_tables,
    complement_params,
    cube_prefilter,
    feasible_candidates,
    scan_all,
    scan_case,
)
from psu4designs.sieve import _cap, _scan_divisors, _t4_holds, _t6_holds, _t7_holds, _t8_holds

Q2 = PrimePower.of(2, 1)
Q3 = PrimePower.of(3, 1)
Q4 = PrimePower.of(2, 2)
Q5 = PrimePower.of(5, 1)


def triples(candidates):
    return [params.triple() for params, _ in candidates]


def test_parabolic_line1_at_q2():
    got = feasible_candidates(45, 1152, [64], 2, True)
    assert triples(got) == [(45, 12, 3)]
    trace = got[0][1]
    assert trace["subdegree_checks"] == [{"bound": 64, "applied": 4, "multiplier": 1}]


def test_line8_at_q2():
    assert triples(feasible_candidates(36, 1440, [], 2, False)) == [(36, 15, 6)]


def test_parabolic_line2_at_q2_empty():
    # unique arithmetic solution k=14 is not a divisor of 1920
    assert feasible_candidates(27, 1920, [64], 2, True) == []


def test_line3_at_q2():
    assert triples(feasible_candidates(40, 1296, [27], 2, False)) == [(40, 27, 18)]


def test_candidates_ascend_in_k():
    # biplane parameters and their complement both survive on v=16
    got = triples(feasible_candidates(16, 720, [], 2, False))
    assert got == [(16, 6, 2), (16, 10, 6)]


def test_preconditions():
    with pytest.raises(ValueError):
        feasible_candidates(3, 10, [], 2, False)
    with pytest.raises(ValueError):
        feasible_candidates(45, 0, [], 2, False)


def test_tits_violation_flagged():
    # artificial case: p divides v-1, non-parabolic stabiliser
    result = _scan_divisors(10, 720, [], 3, False)
    assert result.tits_violated
    assert result.candidates == []


def test_design_params_validation():
    DesignParams(36, 15, 6)
    with pytest.raises(ValueError):
        DesignParams(36, 15, 7)
    with pytest.raises(ValueError):
        DesignParams(36, 35, 34)  # k = v-1 trivial
    with pytest.raises(ValueError):
        DesignParams(45, 12, 4)


def test_complement_params():
    comp = complement_params(DesignParams(45, 12, 3))
    assert comp.triple() == (45, 33, 24)
    assert complement_params(comp).triple() == (45, 12, 3)
    for base in ((36, 15, 6), (40, 27, 18)):
        comp = complement_params(DesignParams(*base))
        assert comp.k * (comp.k - 1) == comp.lam * (comp.v - 1)


def test_cube_prefilter():
    assert cube_prefilter(11, PrimePower.of(7, 1))
    assert cube_prefilter(12, Q3)
    assert cube_prefilter(15, Q3)
    assert not cube_prefilter(16, PrimePower.of(17, 1))
    assert cube_prefilter(16, Q5)
    with pytest.raises(ValueError):
        cube_prefilter(10, Q3)


def test_scan_case_line6_q4_unresolved():
    outcome = scan_case(6, Q4)
    assert outcome.status == UNRESOLVED
    assert triples(outcome.candidates) == [(41600, 2448, 144)]


def test_scan_case_line8_q2_survivor():
    outcome = scan_case(8, Q2)
    assert outcome.status == SURVIVOR
    assert triples(outcome.candidates) == [(36, 15, 6)]


def test_scan_case_line4_q5_eliminated():
    outcome = scan_case(4, Q5)
    assert outcome.status == ELIMINATED
    assert outcome.reason == NO_K_DIVISOR


def test_scan_case_cube_prefilter_reason():
    outcome = scan_case(13, Q5)
    assert outcome.status == ELIMINATED
    assert outcome.reason == CUBE_PREFILTER


def test_scan_all_smallest_range():
    report = scan_all(2, 1)
    assert report.survivors == [
        (1, 2, (45, 12, 3)),
        (3, 2, (40, 27, 18)),
        (4, 2, (40, 27, 18)),
        (8, 2, (36, 15, 6)),
    ]
    assert report.unresolved == []
    assert report.outcome(2, 2).status == ELIMINATED


def test_scan_all_to_p5():
    report = scan_all(5, 1)
    assert report.survivors == [
        (1, 2, (45, 12, 3)),
        (3, 2, (40, 27, 18)),
        (4, 2, (40, 27, 18)),
        (8, 2, (36, 15, 6)),
    ]
    # the two feasible-but-unrealised triples at q=3 on the fixed-group lines
    assert report.unresolved == [
        (14, 3, (1296, 630, 306)),
        (15, 3, (162, 70, 30)),
    ]


def test_scan_all_known_triples_at_p11():
    report = scan_all(11, 2)
    assert {t for _, _, t in report.survivors} == {(45, 12, 3), (40, 27, 18), (36, 15, 6)}
    assert all(qv == 2 for _, qv, _ in report.survivors)


def test_scan_monotone_in_range():
    small = scan_all(3, 1)
    large = scan_all(5, 2)
    keyed = {(oc.line, oc.q.q): oc for oc in large.outcomes}
    for oc in small.outcomes:
        big = keyed[(oc.line, oc.q.q)]
        assert big.status == oc.status
        assert big.reason == oc.reason
        assert triples(big.candidates) == triples(oc.candidates)


def test_scan_report_rejections_recorded():
    outcome = scan_case(2, Q2)
    assert outcome.status == ELIMINATED
    assert sum(outcome.rejections.values()) > 0


def test_oracle_agreement_samples():
    cases = [
        (1, Q2), (2, Q2), (3, Q2), (4, Q2), (8, Q2),
        (1, Q3), (3, Q3), (4, Q3), (5, Q3), (8, Q3), (10, Q3),
        (14, Q3), (15, Q3), (6, Q4), (8, Q5), (16, Q5),
    ]
    for line, q in cases:
        case = case_for(line, q)
        v = case.point_count(q)
        if v > 10**6:
            continue
        kb = case.k_divisor_bound(q)
        subdeg = case.subdegree_divisors(q)
        got = triples(feasible_candidates(v, kb, subdeg, q.p, case.parabolic))
        want = brute_force_candidates(v, kb, subdeg, q.p, case.parabolic)
        assert got == want, (line, q.q)


def test_bound_tables_shapes():
    tables = bound_tables()
    tables["4"]["caps"][2] = 0
    tables = bound_tables()
    assert tables["3"]["rows"][4] == {"v": 339456, "k_divides": 12000}
    assert tables["4"]["caps"][2] == 10
    assert tables["6"]["caps"][2] == 9
    assert sorted(tables["7"]["rows"]) == [4, 8, 16, 32, 64, 128, 256, 512]
    assert tables["7"]["rows"][32]["m_bound"] == 25
    caps8 = tables["8"]["caps"]
    assert caps8[3] == 12 and caps8[5] == 6 and caps8[13] == 4
    assert 19 not in caps8
    assert tables["9"]["lines"] == {
        11: [7], 12: [3], 13: [], 14: [3, 5], 15: [3], 16: [5, 11],
    }


def test_cap_ceiling_matches_exhaustive_search():
    for p in primes_up_to(2000):
        for holds in (_t4_holds, _t6_holds) + ((_t8_holds,) if p > 2 else ()):
            assert _cap(holds, p) == exhaustive_cap(holds, p), (holds.__name__, p)
    assert _cap(_t7_holds, 2) == exhaustive_cap(_t7_holds, 2)


def test_scan_report_unique_case_keys(full_scan):
    keys = [oc.sort_key() for oc in full_scan.outcomes]
    assert len(keys) == len(set(keys))
    assert keys == sorted(keys)
