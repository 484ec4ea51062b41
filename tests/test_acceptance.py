"""Acceptance suite: one test per acceptance criterion, exact assertions.

Run with ``pytest -v -s tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Every expectation here is exact; there are no
tolerances anywhere in the toolkit.
"""

import math

import pytest
from helpers import brute_force_candidates, flags, orbit, prime_powers_up_to, relabel

from psu4designs import permgroup
from psu4designs.catalog import CLOSED_FORM_V, case_for, cases_for
from psu4designs.designs import build, complement, find_isomorphism, is_isomorphism, verify_symmetric
from psu4designs.exactmath import is_perfect_square
from psu4designs.sieve import DesignParams, bound_tables, feasible_candidates


def report(criterion: str, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_catalog_consistency():
    checked = 0
    for q in prime_powers_up_to(64):
        for case in cases_for(q):
            if case.line > 10:
                continue
            v = case.point_count(q)  # exact divisibility or CatalogError
            if case.line in (1, 2, 3, 8):
                d = math.gcd(4, q.q + 1)
                assert v == CLOSED_FORM_V[case.line](q.q, d), (case.line, q.q)
            checked += 1
    assert checked > 100
    report("criterion 1", f"index identity and closed forms exact on {checked} cases")


EXPECTED_SURVIVORS = [
    (1, 2, (45, 12, 3)),
    (3, 2, (40, 27, 18)),
    (4, 2, (40, 27, 18)),
    (8, 2, (36, 15, 6)),
]


def test_criterion_2_theorem_reproduction(full_scan):
    assert full_scan.survivors == EXPECTED_SURVIVORS
    unresolved = {(line, qv): triple for line, qv, triple in full_scan.unresolved}
    assert unresolved[(6, 4)] == (41600, 2448, 144)
    assert unresolved.get((14, 3)) in (None, (1296, 630, 306))
    report(
        "criterion 2",
        "survivor set equals the four known parameter triples at q=2 "
        f"(unresolved: {sorted(unresolved)})",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the q=3 fixed-subgroup case on line 15 admits the arithmetically "
    "feasible triple (162, 70, 30) (k=70 divides the k-bound 161280 and "
    "every constraint passes), so the unresolved list is not confined to "
    "lines 6 and 14; suppressing it would hide a sound candidate",
)
def test_criterion_2_unresolved_confinement(full_scan):
    assert {(line, qv) for line, qv, _ in full_scan.unresolved} <= {(6, 4), (14, 3)}


def test_criterion_3_table3_golden():
    rows = bound_tables()["3"]
    expected = {
        2: (40, 1296),
        3: (8505, 3072),
        4: (339456, 12000),
        5: (5687500, 10368),
        8: (1982955520, 104976),
    }
    assert rows == expected
    report("criterion 3", "line-4 (v, k-bound) table exact for q in {2,3,4,5,8}")


def test_criterion_4_table9_golden():
    lines = bound_tables()["9"]
    assert lines[11] == [7]
    assert lines[12] == [3]
    assert lines[15] == [3]
    assert lines[16] == [5, 11]
    # lines 13-14 are reported as computed, never altered to match the
    # golden claim of emptiness; 14 diverges and stays visible
    assert lines[13] == []
    assert lines[14] == [3, 5]
    report(
        "criterion 4",
        "cube-prefilter sets exact for lines 11/12/15/16; "
        "line 13 = [] and line 14 = [3, 5] reported with divergence annotation",
    )


def test_criterion_5_constructions():
    expected = {
        "menon36": (36, 15, 6),
        "minus45": (45, 12, 3),
        "higman40": (40, 13, 4),
        "pg33": (40, 13, 4),
    }
    for kind, want in expected.items():
        result = verify_symmetric(build(kind))
        assert isinstance(result, DesignParams) and result.triple() == want, kind
    for kind in ("pg33", "higman40"):
        result = verify_symmetric(complement(build(kind)))
        assert isinstance(result, DesignParams) and result.triple() == (40, 27, 18)
    report("criterion 5", "four builders and the two complements verify exactly")


def test_criterion_6_non_isomorphism():
    d1 = complement(build("pg33"))
    d2 = complement(build("higman40"))
    assert find_isomorphism(d1, d2) is None
    import random

    rng = random.Random(20250810)
    for base in (d1, d2):
        perm = list(range(base.v))
        rng.shuffle(perm)
        shuffled = relabel(base, perm)
        witness = find_isomorphism(base, shuffled)
        assert witness is not None
        assert is_isomorphism(base, shuffled, witness)
    report(
        "criterion 6",
        "the two (40,27,18) designs are non-isomorphic; relabeling "
        "self-tests return validated witnesses",
    )


def test_criterion_7_group_checks(reflection_actions):
    targets = {
        "menon36": build("menon36"),
        "minus45": build("minus45"),
        "higman40": complement(build("higman40")),
    }
    orders = {}
    for name, action in reflection_actions.items():
        assert len(orbit(action, 0)) == action.degree, name
        assert permgroup.is_primitive(action), name
        sizes = permgroup.stabilizer_orbit_sizes(action, 0)
        assert len(sizes) == 3, (name, sizes)
        order = permgroup.group_order(action)
        assert order in (25920, 51840), (name, order)
        orders[name] = order
        design = targets[name]
        block_action = permgroup.induced_block_action(action, design)
        assert permgroup.is_flag_transitive(action, design, block_action), name
        assert order % len(flags(design)) == 0, name
    report(
        "criterion 7",
        f"all three actions transitive, primitive, rank 3, flag-transitive; orders {orders}",
    )


def test_criterion_8_sieve_vs_oracle(full_scan):
    compared = 0
    for outcome in full_scan.outcomes:
        if outcome.v > 10**6:
            continue
        q = outcome.q
        case = case_for(outcome.line, q, outcome.subfield)
        subdeg = case.subdegree_divisors(q)
        got = [
            params.triple()
            for params, _ in feasible_candidates(
                outcome.v, outcome.k_bound, subdeg, q.p, case.parabolic
            )
        ]
        want = brute_force_candidates(
            outcome.v, outcome.k_bound, subdeg, q.p, case.parabolic
        )
        assert got == want, (outcome.line, q.q)
        compared += 1
    assert compared >= 40
    report("criterion 8", f"residue search equals the brute-force oracle on {compared} cases")


def test_criterion_9_square_spot_checks():
    assert 4 * 6 * 35 + 1 == 841
    assert is_perfect_square(841)
    assert 841 == 29**2
    DesignParams(36, 15, 6)
    with pytest.raises(ValueError):
        DesignParams(36, 15, 7)
    # the perturbed triple fails the counting identity, and its
    # discriminant 4*7*35+1 = 981 is not a square either
    assert not is_perfect_square(4 * 7 * 35 + 1)
    report("criterion 9", "square accept/reject spot checks exact")
