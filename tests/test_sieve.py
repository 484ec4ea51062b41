import hashlib
import random
import re
from collections import Counter

import pytest
from helpers import (
    brute_force_candidates, divisor_scan, exhaustive_cap, reference_cap, reference_k_search,
    prime_powers_up_to, reference_scan_instance,
)

from psu4designs import catalog, sieve
from psu4designs.catalog import case_for, cases_for, out_order, socle_order
from psu4designs.exactmath import (
    _TRIAL_LIMIT, DesignParams, PrimePower, primes_up_to,
)
from psu4designs.sieve import (
    CUBE_PREFILTER,
    ELIMINATED,
    NO_K_DIVISOR,
    SUBDEG_FAIL,
    SURVIVOR,
    TITS_FAIL,
    UNRESOLVED,
    CaseOutcome,
    bound_table,
    bound_tables,
    feasible_candidates,
    scan_all,
    scan_case,
    scan_range,
)
from psu4designs.sieve import _cap, _k_search, _t4_holds, _t6_holds, _t7_holds, _t8_holds

Q2 = PrimePower.of(2, 1)
Q3 = PrimePower.of(3, 1)
Q4 = PrimePower.of(2, 2)
Q5 = PrimePower.of(5, 1)


def triples(candidates):
    return [params.triple() for params, _ in candidates]


def past_stage0(rejections):
    return {r: n for r, n in rejections.items() if r != NO_K_DIVISOR}


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
    candidates, _, tits_violated = _k_search(10, 720, [], 3, False)
    assert tits_violated
    assert candidates == []


def test_design_params_validation():
    DesignParams(36, 15, 6)
    with pytest.raises(ValueError):
        DesignParams(36, 15, 7)
    with pytest.raises(ValueError):
        DesignParams(36, 35, 34)  # k = v-1 trivial
    with pytest.raises(ValueError):
        DesignParams(45, 12, 4)


def test_cube_prefilter():
    assert scan_case(11, PrimePower.of(7, 1)).reason != CUBE_PREFILTER
    assert scan_case(12, Q3).reason != CUBE_PREFILTER
    assert scan_case(15, Q3).reason != CUBE_PREFILTER
    assert scan_case(16, PrimePower.of(17, 1)).reason == CUBE_PREFILTER
    assert scan_case(16, Q5).reason != CUBE_PREFILTER


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
    (line2,) = [oc for oc in report.outcomes if (oc.line, oc.q.q) == (2, 2)]
    assert line2.status == ELIMINATED
    with pytest.raises(ValueError, match="need p_max >= 2 and a_max >= 1"):
        scan_range(1, 1)


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


@pytest.mark.parametrize("lines, unknown", [
    ([99], "[99]"), (["8"], "['8']"), ([8, 99], "[99]"), ([0, 8, 17, 16], "[0, 17]"),
])
def test_scan_all_rejects_unknown_lines(lines, unknown):
    """A line outside 1-16 raises, naming every such entry, instead of
    being skipped while the known lines are scanned."""
    with pytest.raises(ValueError, match=re.escape(f"unknown case lines {unknown}:")):
        scan_all(13, 3, lines)


def test_scan_all_line_selection():
    """None scans every line, an empty list none, and a list just its lines."""
    assert scan_all(3, 1, None) == scan_all(3, 1, list(range(1, 17)))
    assert scan_all(3, 1, []).outcomes == []
    assert {oc.line for oc in scan_all(3, 1, [8, 15]).outcomes} == {8, 15}


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


def test_bound_table_is_its_entry_of_bound_tables():
    tables = bound_tables()
    assert sorted(tables) == ["3", "4", "6", "7", "8", "9"]
    for tid, table in tables.items():
        assert bound_table(tid) == table, tid


def test_bound_tables_shapes():
    tables = bound_tables()
    tables["4"][2] = 0
    tables = bound_tables()
    assert tables["3"][4] == (339456, 12000)
    assert tables["4"][2] == 10
    assert tables["6"][2] == 9
    assert sorted(tables["7"]) == [4, 8, 16, 32, 64, 128, 256, 512]
    assert tables["7"][32] == (33555456, 25)
    caps8 = tables["8"]
    assert caps8[3] == 12 and caps8[5] == 6 and caps8[13] == 4
    assert 19 not in caps8
    assert tables["9"] == {
        11: [7], 12: [3], 13: [], 14: [3, 5], 15: [3], 16: [5, 11],
    }


def test_cap_ceiling_matches_exhaustive_search():
    for p in primes_up_to(2000):
        for holds in (_t4_holds, _t6_holds) + ((_t8_holds,) if p > 2 else ()):
            assert _cap(holds, p) == exhaustive_cap(holds, p), (holds.__name__, p)
    assert _cap(_t7_holds, 2) == exhaustive_cap(_t7_holds, 2)


@pytest.mark.parametrize("tid", ["4", "6", "7", "8"])
def test_cap_tables_match_reference_cap(monkeypatch, tid):
    """Every prime up to the ceiling: ``_cap`` stops at the first exponent
    whose q is above ``_Q_CEILING * a^3``, the oracle runs every a < 4."""
    table = bound_table(tid)
    monkeypatch.setattr(sieve, "_cap", reference_cap)
    assert table == bound_table(tid)


def test_scan_report_unique_case_keys(full_scan):
    keys = [oc.sort_key() for oc in full_scan.outcomes]
    assert len(keys) == len(set(keys))
    assert keys == sorted(keys)


def test_residue_search_matches_divisor_scan(full_scan):
    searched = 0
    for oc in full_scan.outcomes:
        if oc.reason in (CUBE_PREFILTER, TITS_FAIL):
            continue
        case = case_for(oc.line, oc.q, oc.subfield)
        want, rejections = divisor_scan(
            oc.v, oc.k_bound, case.subdegree_divisors(oc.q), oc.q.p, case.parabolic
        )
        keep = ("square_root", "subdegree_checks")
        got = [
            (params.triple(), {key: trace[key] for key in keep})
            for params, trace in oc.candidates
        ]
        assert got == want, (oc.line, oc.q.q)
        assert past_stage0(oc.rejections) == past_stage0(rejections), (oc.line, oc.q.q)
        searched += 1
    assert searched > 100


def test_residue_search_random_differential():
    rng = random.Random(20261018)

    def smooth():
        n = 1
        for r in (2, 3, 5, 7, 11, 13):
            n *= r ** rng.randrange(5)
        return n

    nonempty = 0
    for _ in range(1000):
        v = rng.randrange(4, 5000)
        k_bound = smooth()
        subdeg = [smooth() for _ in range(rng.randrange(3))]
        p = rng.choice((2, 3, 5, 7))
        parabolic = rng.random() < 0.5
        candidates, got_rejections, _ = _k_search(v, k_bound, subdeg, p, parabolic)
        want, rejections = divisor_scan(v, k_bound, subdeg, p, parabolic)
        got = [(params.triple(), trace) for params, trace in candidates]
        assert got == want, (v, k_bound, subdeg, p, parabolic)
        assert past_stage0(got_rejections) == past_stage0(rejections)
        assert [t for t, _ in want] == brute_force_candidates(v, k_bound, subdeg, p, parabolic)
        nonempty += bool(got)
    assert nonempty > 0


def _searched_cases(report):
    """(v, k_bound, subdegree divisors, p, parabolic) of every case of the
    report that reached the k-search."""
    for oc in report.outcomes:
        if oc.reason == CUBE_PREFILTER:
            continue
        case = case_for(oc.line, oc.q, oc.subfield)
        yield oc.v, oc.k_bound, case.subdegree_divisors(oc.q), oc.q.p, case.parabolic


@pytest.mark.parametrize("p_max, a_max", [(13, 3), (400, 1), (2, 12)])
def test_k_search_matches_reference_on_scans(p_max, a_max):
    """Factoring gcd(k-bound, v-1) gives the result of factoring the whole
    k-bound: candidates, traces, the tits flag and every rejection count."""
    searched = 0
    for args in _searched_cases(scan_all(p_max, a_max)):
        assert _k_search(*args) == reference_k_search(*args), args
        searched += 1
    assert searched > 80


def test_k_search_matches_reference_random():
    """Draws where some prime power of v-1 divides the k-bound only in part,
    so the prime divides gcd(k-bound, v-1) but is left out of the residues."""
    rng = random.Random(20261019)
    primes = (2, 3, 5, 7, 11, 13)

    def exponents():
        return [rng.randrange(4) for _ in primes]

    draws = nonempty = 0
    while draws < 1000:
        ev, eb = exponents(), exponents()
        if not any(0 < b < a for a, b in zip(ev, eb)):
            continue
        vm1 = k_bound = 1
        for r, a, b in zip(primes, ev, eb):
            vm1 *= r**a
            k_bound *= r**b
        if vm1 < 3:
            continue
        k_bound *= rng.choice((1, 1, 17, 10007, 1000003))
        subdeg = [rng.randrange(1, 10**4) for _ in range(rng.randrange(3))]
        args = (vm1 + 1, k_bound, subdeg, rng.choice((2, 3, 5, 7)), rng.random() < 0.5)
        got = _k_search(*args)
        assert got == reference_k_search(*args), args
        draws += 1
        nonempty += bool(got[1])
    assert nonempty > 500


def test_cube_prefilter_is_the_scan_reason():
    """On lines 11-16 a case is eliminated by the cube prefilter exactly when
    the order test |X| <= |Out(X)|^2 * |H0|^3 fails."""
    seen = set()
    for p in primes_up_to(1000):
        q = PrimePower.of(p, 1)
        for line in {c.line for c in cases_for(q)} & set(range(11, 17)):
            h0 = socle_order(q) // case_for(line, q).point_count(q)
            passes = socle_order(q) <= out_order(q) ** 2 * h0**3
            assert (scan_case(line, q).reason == CUBE_PREFILTER) == (not passes), (line, p)
            seen.add(passes)
    assert seen == {True, False}


def test_k_search_factors_only_trial_proven_numbers(monkeypatch):
    """Every number the k-search factors over the acceptance range is below
    _TRIAL_LIMIT**2, so trial division alone proves its prime factors.  A
    gcd(k-bound, v-1) of 1 is never factored: 25 of the 165 searched cases
    have one."""
    factorize, factored = sieve.factorize, []
    monkeypatch.setattr(sieve, "factorize", lambda n: factored.append(n) or factorize(n))
    scan_all(13, 3)
    assert len(factored) == 140
    assert 1 not in factored
    assert max(factored) < _TRIAL_LIMIT**2


# The scan ranges over which every refactor of the sieve has kept its
# outcomes byte-identical, with the sha256 of ``repr(scan_all(p, a).outcomes)``.
BYTE_IDENTITY_DIGESTS = {
    (13, 3): "b415cfc03631ed3d84b7a66423761d644fa3d923c89d3bb4ce3e62b6ed6803a7",
    (400, 1): "253e2823b159ac13b4b1de78c7fe10969542627f0ee8c478ea2222733d982819",
    (2, 12): "3586cf7dbeff45572947a794d5b4caeee8c2c81417face172b654fc686f25b40",
    (1000, 1): "ee880fe229275b8db45bd2fc3e808f88b3f3df579dc8d3067d1f2310c938fc58",
    (60, 4): "2d0406821becf33a5634622742751f962c2f51d2f614b3520c6d5853303aef7c",
    (3, 9): "db28b83ccabac0797a19d32e6d4adfa3d71cd57951c0a58446049c57d5f3ca13",
    (31, 3): "53d63b90dd4b79d7f36a1c0ace9b17c61a87a6781f21a5d5f9cf22b0185d1ebe",
    (7, 6): "3ee948d7cc2695125f947663c09efd75af6f8d21a377697542182f9f948c6936",
}
BYTE_IDENTITY_RANGES = list(BYTE_IDENTITY_DIGESTS)

# is_prime's 13 Miller-Rabin witnesses (the primes up to 41) prove primality
# below this bound (Sorenson and Webster, 2015).
MILLER_RABIN_PROVEN = 3_317_044_064_679_887_385_961_981


def test_k_search_factors_only_miller_rabin_proven_numbers(monkeypatch):
    """Every number the k-search factors over the byte-identity ranges is
    below the bound up to which is_prime's Miller-Rabin is proven, so no
    factor it reports is only probably prime.  The largest is at (60, 4)."""
    factorize, factored = sieve.factorize, []
    monkeypatch.setattr(sieve, "factorize", lambda n: factored.append(n) or factorize(n))
    largest = {}
    for p_max, a_max in BYTE_IDENTITY_RANGES:
        factored.clear()
        scan_all(p_max, a_max)
        largest[p_max, a_max] = max(factored)
    assert max(largest.values()) < MILLER_RABIN_PROVEN
    assert max(largest, key=largest.get) == (60, 4)


@pytest.mark.parametrize("p_max, a_max", BYTE_IDENTITY_RANGES)
def test_scan_matches_reference_scan_instance(p_max, a_max):
    """Reading v, the k-bound and the cube test from one |X| and one |H0| per
    case gives, outcome by outcome and byte for byte, the outcomes of the
    separate catalog calls and the cube test |X| <= |Out|^2 * |H0|^3; and the
    outcomes' repr hashes to the digest pinned for the range."""
    got = scan_all(p_max, a_max).outcomes
    assert hashlib.sha256(repr(got).encode()).hexdigest() == BYTE_IDENTITY_DIGESTS[p_max, a_max]
    want = sorted(
        (reference_scan_instance(case, q) for q in scan_range(p_max, a_max) for case in cases_for(q)),
        key=CaseOutcome.sort_key,
    )
    assert len(got) == len(want) > 0
    for outcome, expected in zip(got, want):
        assert repr(outcome) == repr(expected), (outcome.line, outcome.q.q, outcome.subfield)


def test_table9_enumerates_each_prime_once(monkeypatch):
    """Table 9 reads the cases of each prime q <= 200 from one enumeration,
    not once more per fixed-group line."""
    cases, calls = catalog.cases_for, []
    monkeypatch.setattr(catalog, "cases_for", lambda q: calls.append(q.q) or cases(q))
    bound_table("9")
    assert calls == primes_up_to(200)
    assert len(calls) == 46


def test_scan_all_works_out_socle_order_once_per_q(monkeypatch):
    """|X| depends on q alone, so a scan works it out once per q, not once
    per case (857 cases over these 78 q), and only at the q where a wanted
    line applies (line 15 applies at q = 3 alone)."""
    socle_order, calls = catalog.socle_order, []
    monkeypatch.setattr(catalog, "socle_order", lambda q: calls.append(q.q) or socle_order(q))
    scan_all(400, 1)
    assert calls == [q.q for q in scan_range(400, 1)]
    assert len(calls) == 78
    calls.clear()
    scan_all(400, 1, lines=[15])
    assert calls == [3]


def test_cube_prefilter_never_decides_a_status():
    """The prefilter fails exactly when v > k-bound^2 (v = |X|/|H0| and the
    k-bound is |Out(X)|*|H0|).  Then every k > 1 dividing the bound has
    0 < k(k-1) < v-1, so (v-1) does not divide k(k-1) and the k-search finds
    nothing either: the prefilter only names the reason (paper table 9)."""
    checked = 0
    for p_max, a_max in ((13, 3), (400, 1)):
        for oc in scan_all(p_max, a_max).outcomes:
            if oc.reason != CUBE_PREFILTER:
                continue
            case = case_for(oc.line, oc.q, oc.subfield)
            assert oc.v > oc.k_bound**2, (oc.line, oc.q.q)
            subdeg = case.subdegree_divisors(oc.q)
            assert feasible_candidates(oc.v, oc.k_bound, subdeg, oc.q.p, case.parabolic) == []
            checked += 1
    assert checked == 158


def test_tits_lemma_holds_on_catalog():
    """p divides v for every non-parabolic case, so gcd(p, v-1) = 1 and
    stage (vi) never fires on the catalog; it guards arbitrary input only."""
    checked = 0
    for q in prime_powers_up_to(10**4):
        for case in cases_for(q):
            if not case.parabolic:
                assert case.point_count(q) % q.p == 0, (case.line, q.q)
                checked += 1
    assert checked == 11425


@pytest.mark.parametrize("p_max, a_max, cases, reasons, rejections", [
    (400, 1, 857,
     {None: 6, NO_K_DIVISOR: 696, SUBDEG_FAIL: 1, CUBE_PREFILTER: 154},
     {NO_K_DIVISOR: 1868, SUBDEG_FAIL: 1}),
    (2, 12, 90,
     {None: 5, NO_K_DIVISOR: 84, SUBDEG_FAIL: 1},
     {NO_K_DIVISOR: 210, SUBDEG_FAIL: 1}),
])
def test_scan_reasons_pinned_on_bench_ranges(p_max, a_max, cases, reasons, rejections):
    """Per-case reasons and summed rejection counts on the benchmark ranges."""
    outcomes = scan_all(p_max, a_max).outcomes
    assert len(outcomes) == cases
    assert Counter(oc.reason for oc in outcomes) == reasons
    assert sum((Counter(oc.rejections) for oc in outcomes), Counter()) == rejections
