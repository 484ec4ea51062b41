import random
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    CounterRefineIsoSearch,
    ReferenceIsoSearch,
    RowKeysIsoSearch,
    brute_force_isomorphic,
    first_appearance,
    flags,
    reference_anchor_signature,
    reference_build,
    reference_find_isomorphism,
    reference_out_of_range,
    reference_pair_profiles,
    reference_unsorted,
    reference_verify_symmetric,
    relabel,
)
from psu4designs.designs import (
    KINDS,
    DesignFormatError,
    IncidenceStructure,
    VerificationFailure,
    build,
    complement,
    find_isomorphism,
    format_design,
    is_isomorphism,
    parse_design,
    read_design,
    verify_symmetric,
    write_design,
    _anchor_signature,
    _edge_codes,
    _IsoSearch,
    _pair_profiles,
)
from psu4designs.exactmath import DesignParams

EXPECTED_PARAMS = {
    "menon36": (36, 15, 6),
    "minus45": (45, 12, 3),
    "higman40": (40, 13, 4),
    "pg33": (40, 13, 4),
}


@pytest.fixture(scope="module")
def built():
    return {kind: build(kind) for kind in KINDS}


def test_build_matches_reference():
    for kind in KINDS:
        assert build(kind) == reference_build(kind), kind
    with pytest.raises(ValueError, match="unknown design kind 'fano'"):
        build("fano")


def test_builders_verify(built):
    for kind, want in EXPECTED_PARAMS.items():
        result = verify_symmetric(built[kind])
        assert isinstance(result, DesignParams)
        assert result.triple() == want


def test_complements_verify(built):
    for kind in ("pg33", "higman40"):
        result = verify_symmetric(complement(built[kind]))
        assert isinstance(result, DesignParams)
        assert result.triple() == (40, 27, 18)


def test_complement_involution(built):
    d = built["menon36"]
    assert complement(complement(d)) == d


def test_incidence_identity(built):
    # N N^T = (k - lam) I + lam J entrywise
    for kind, (v, k, lam) in EXPECTED_PARAMS.items():
        d = built[kind]
        masks = d.point_masks()
        for x in range(v):
            for y in range(v):
                want = k if x == y else lam
                assert (masks[x] & masks[y]).bit_count() == want


def test_orthogonal_blocks_align_with_points(built):
    # block i is the perp of point i, so incidence is symmetric
    for kind in ("menon36", "minus45", "higman40"):
        d = built[kind]
        for i, block in enumerate(d.blocks):
            for j in block:
                assert i in d.blocks[j]


def test_flag_counts(built):
    assert len(flags(built["menon36"])) == 540
    assert len(flags(built["minus45"])) == 540
    assert len(flags(complement(built["pg33"]))) == 1080
    fl = flags(built["menon36"])
    assert fl == sorted(fl)


def test_verify_rejects_trivial():
    full = IncidenceStructure(5, tuple(tuple(range(5)) for _ in range(5)))
    result = verify_symmetric(full)
    assert isinstance(result, VerificationFailure)
    assert result.axiom == "nontriviality"
    small = IncidenceStructure(3, ((0, 1), (1, 2), (0, 2)))
    assert verify_symmetric(small) == VerificationFailure("nontriviality", (3,))


def test_verify_rejects_block_count():
    d = IncidenceStructure(5, ((0, 1), (1, 2)))
    result = verify_symmetric(d)
    assert result == VerificationFailure("block_count", (5, 2))


def test_verify_reports_witness(built):
    d = built["menon36"]
    tampered = IncidenceStructure(d.v, d.blocks[:-1] + (d.blocks[-1][:-1],))
    result = verify_symmetric(tampered)
    assert isinstance(result, VerificationFailure)
    assert result.axiom == "block_size"
    assert result.witness == (35, 14, 15)


def test_verify_detects_pair_violation():
    # right sizes and replication but wrong pair structure: a 1-factorisation
    # style structure on 4 points
    d = IncidenceStructure(4, ((0, 1), (2, 3), (0, 2), (1, 3)))
    # points 0 and 3 share no block, points 0 and 1 share one
    assert verify_symmetric(d) == VerificationFailure("point_pair", (0, 3, 0, 1))


def test_verify_detects_replication_violation():
    # four blocks of size 2 on 4 points, but point 0 lies on 3 blocks, not 2
    d = IncidenceStructure(4, ((0, 1), (0, 2), (0, 3), (1, 2)))
    assert verify_symmetric(d) == VerificationFailure("replication", (0, 3, 2))


def _one_size_structures(v, sizes):
    """Every structure of v points and v blocks, all of one size in sizes."""
    for k in sizes:
        for blocks in product(combinations(range(v), k), repeat=v):
            yield IncidenceStructure(v, blocks)


def test_verify_matches_reference_on_small_structures():
    """Dropping the block-pair pass changes no result on every 4-point
    structure with blocks of one size, and every 5-point one with block size
    0, 1, 4 or 5: the proof's cases k = 0, k = 1 and k = lambda = v."""
    structures = [*_one_size_structures(4, range(5)), *_one_size_structures(5, (0, 1, 4, 5))]
    assert len(structures) == 1810 + 6252
    axioms = Counter()
    for d in structures:
        result = reference_verify_symmetric(d)
        assert verify_symmetric(d) == result, d
        axioms[getattr(result, "axiom", None)] += 1
    assert "block_pair" not in axioms
    assert {"point_pair", "replication", "nontriviality"} <= axioms.keys()


class _AndCounter(int):
    """An int whose & is counted in the class attribute ands."""

    ands = 0

    def __and__(self, other):
        _AndCounter.ands += 1
        return int(self) & other


@pytest.mark.parametrize("k", [0, 1, 49, 50])
def test_verify_trivial_k_skips_pair_pass(monkeypatch, k):
    """For k <= 1 or k >= v-1 the verdict comes without one mask &."""
    v = 50
    full = tuple(range(v))
    d = IncidenceStructure(v, tuple(
        {0: (), 1: (i,), v - 1: full[:i] + full[i + 1:], v: full}[k] for i in range(v)))
    want = reference_verify_symmetric(d)
    plain = IncidenceStructure.point_masks
    monkeypatch.setattr(IncidenceStructure, "point_masks",
                        lambda self: list(map(_AndCounter, plain(self))))
    _AndCounter.ands = 0
    assert verify_symmetric(d) == want == VerificationFailure("nontriviality", (v, k))
    assert _AndCounter.ands == 0


def test_verify_matches_reference_on_cyclic_structures():
    """Block i is {base[(i + s) mod v] : s in S}.  A permutation base gives
    replication k, so the pair pass decides, and a difference set S gives a
    design; a base with repeats gives smaller blocks or uneven replication."""
    rng = random.Random(2020)
    axioms = Counter()
    for _ in range(20_000):
        v = rng.randint(4, 12)
        k = rng.choice([0, 1, 2, v - 2, v - 1, v, rng.randint(0, v)])
        shift = rng.sample(range(v), k)
        base = rng.sample(range(v), v) if rng.random() < 0.5 else rng.choices(range(v), k=v)
        d = IncidenceStructure(v, tuple(
            tuple(sorted({base[(i + s) % v] for s in shift})) for i in range(v)))
        result = verify_symmetric(d)
        assert result == reference_verify_symmetric(d), d
        axioms[getattr(result, "axiom", "design")] += 1
    assert axioms["design"] >= 10
    assert {"block_size", "replication", "point_pair", "nontriviality"} <= axioms.keys()


@pytest.mark.parametrize("seed", range(3))
def test_verify_matches_reference_on_designs(built, seed):
    """The 8 built designs and complements, as built and relabelled."""
    rng = random.Random(seed)
    for kind in KINDS:
        for d in (built[kind], complement(built[kind])):
            perm = list(range(d.v))
            rng.shuffle(perm)
            for e in (d, relabel(d, perm)):
                result = verify_symmetric(e)
                assert isinstance(result, DesignParams)
                assert result == reference_verify_symmetric(e), kind


def test_format_roundtrip(built):
    for kind in KINDS:
        d = built[kind]
        assert parse_design(format_design(d)) == d
    text = format_design(built["menon36"])
    assert text.startswith("36 36\n")
    assert text.endswith("\n")


def test_file_roundtrip(tmp_path, built):
    path = tmp_path / "menon.des"
    write_design(built["menon36"], str(path))
    assert read_design(str(path)) == built["menon36"]


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("", 1),
        ("3\n", 1),
        ("2 x\n", 1),
        ("3 2\n0 1\n", 3),
        ("3 1\n0 zero\n", 2),
        ("3 1\n0 5\n", 2),
        ("3 1\n1 0\n", 2),
        ("1_2 1\n0 3\n", 1),
        ("+3 1\n0 1\n", 1),
        ("3 -1\n", 1),
        ("\u0663 1\n0 1\n", 1),
        ("12 1\n+0 1_1\n", 2),
        ("3 1\n-0 1\n", 2),
        ("3 1\n0 \u0661\n", 2),
        ("0 0\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(DesignFormatError) as err:
        parse_design(text)
    assert err.value.lineno == lineno


# Small incidence structures: v points and up to 10 sorted blocks, empty
# blocks included.
_STRUCTURES = st.integers(min_value=1, max_value=12).flatmap(
    lambda v: st.lists(
        st.sets(st.integers(min_value=0, max_value=v - 1)).map(lambda s: tuple(sorted(s))),
        max_size=10,
    ).map(lambda blocks: IncidenceStructure(v, tuple(blocks)))
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(d=_STRUCTURES)
def test_format_parse_roundtrip_property(d):
    assert parse_design(format_design(d)) == d


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    d=_STRUCTURES,
    data=st.data(),
    noise=st.text(alphabet="0123456789 -+x\t\n", max_size=4),
)
def test_parse_rejects_only_with_format_error(d, data, noise):
    """A valid file with a few characters replaced by noise either parses
    or raises DesignFormatError with a line number inside the text."""
    text = format_design(d)
    at = data.draw(st.integers(min_value=0, max_value=len(text)))
    cut = data.draw(st.integers(min_value=0, max_value=3))
    text = text[:at] + noise + text[at + cut:]
    try:
        parsed = parse_design(text)
    except DesignFormatError as exc:
        assert 1 <= exc.lineno <= text.count("\n") + 2
        assert str(exc).startswith(f"line {exc.lineno}: ")
    else:
        assert parse_design(format_design(parsed)) == parsed


# v points and up to 6 blocks of indices in -1..v: empty blocks, the
# indices -1 and v, repeated indices and unsorted blocks
_RAW_BLOCKS = st.integers(min_value=1, max_value=8).flatmap(
    lambda v: st.tuples(
        st.just(v),
        st.lists(st.lists(st.integers(min_value=-1, max_value=v)).map(tuple), max_size=6),
    )
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(case=_RAW_BLOCKS)
@example(case=(3, [(), (0, 2)]))
@example(case=(3, [(0, 3)]))
@example(case=(3, [(-1, 0)]))
@example(case=(3, [(1, 1)]))
@example(case=(3, [(2, 0)]))
@example(case=(3, [(0, 1), (2, 0, 5)]))
def test_block_checks_match_reference(case):
    """IncidenceStructure and parse_design accept and reject blocks exactly
    as the generator predicates they ran before: the first bad block fails,
    with the range error before the order error, and in a file a negative
    index fails as a token before either, on the block's own line."""
    v, blocks = case
    blocks = tuple(blocks)
    bad = next(
        (b for b, block in enumerate(blocks)
         if reference_out_of_range(v, block) or reference_unsorted(block)),
        None,
    )
    text = f"{v} {len(blocks)}\n" + "".join(" ".join(map(str, block)) + "\n" for block in blocks)
    if bad is None:
        assert IncidenceStructure(v, blocks).blocks == blocks
        assert parse_design(text) == IncidenceStructure(v, blocks)
        return
    what = ("has an out-of-range point index" if reference_out_of_range(v, blocks[bad])
            else "is not strictly sorted")
    with pytest.raises(ValueError) as err:
        IncidenceStructure(v, blocks)
    assert str(err.value) == f"block {bad} {what}"
    if min(blocks[bad]) < 0:
        message = "block entries must be integers"
    elif reference_out_of_range(v, blocks[bad]):
        message = "point index out of range"
    else:
        message = "block must be strictly increasing"
    with pytest.raises(DesignFormatError) as err:
        parse_design(text)
    assert (err.value.lineno, str(err.value)) == (bad + 2, f"line {bad + 2}: {message}")


def test_parse_returns_incidence_structure(built):
    """parse_design skips IncidenceStructure.__new__, yet returns the class,
    not a bare tuple that would compare equal to it."""
    assert type(parse_design(format_design(built["pg33"]))) is IncidenceStructure


def test_two_40_27_18_designs_not_isomorphic(built):
    assert find_isomorphism(complement(built["pg33"]), complement(built["higman40"])) is None
    assert find_isomorphism(built["pg33"], built["higman40"]) is None


def test_relabel_self_isomorphism(built):
    rng = random.Random(7)
    for kind in KINDS:
        d = built[kind]
        perm = list(range(d.v))
        rng.shuffle(perm)
        shuffled = relabel(d, perm)
        witness = find_isomorphism(d, shuffled)
        assert witness is not None
        assert is_isomorphism(d, shuffled, witness)


def test_isomorphism_of_degenerate_structures():
    """With no point the search starts and ends at the empty colouring; with
    one it starts discrete, blocks or none."""
    assert find_isomorphism(IncidenceStructure(0, ()), IncidenceStructure(0, ())) == []
    assert find_isomorphism(IncidenceStructure(0, ((),)), IncidenceStructure(0, ((),))) == []
    assert find_isomorphism(IncidenceStructure(1, ()), IncidenceStructure(1, ())) == [0]
    one = IncidenceStructure(1, ((0,), ()))
    assert find_isomorphism(one, one) == [0]


def test_isomorphism_reflexive_and_symmetric(built):
    d1 = complement(built["pg33"])
    d2 = complement(built["higman40"])
    assert find_isomorphism(d1, d1) is not None
    assert find_isomorphism(d2, d2) is not None
    assert (find_isomorphism(d1, d2) is None) == (find_isomorphism(d2, d1) is None)


def _random_structure(rng):
    """Blocks of any size, empty ones included, some of them repeated."""
    v = rng.randint(1, 14)
    blocks = [
        tuple(sorted(rng.sample(range(v), rng.randint(0, v))))
        for _ in range(rng.randint(0, 16))
    ]
    blocks += rng.choices(blocks, k=rng.randint(0, 4)) if blocks else []
    rng.shuffle(blocks)
    return IncidenceStructure(v, tuple(blocks))


def _dense_structure(rng, v=24):
    """Many blocks of about half the points: the triple counts take more
    than 8 distinct values, so more than one group of 8 is counted."""
    return IncidenceStructure(v, tuple(
        tuple(sorted(rng.sample(range(v), rng.randint(v // 3, 2 * v // 3))))
        for _ in range(rng.randint(v, 2 * v))
    ))


def test_pair_profiles_match_reference(built):
    cases = [d for kind in KINDS for d in (built[kind], complement(built[kind]))]
    rng = random.Random(2024)
    cases += [_random_structure(rng) for _ in range(200)]
    dense = [_dense_structure(rng) for _ in range(4)]
    for d in dense:
        keys = _pair_profiles(d)[1]
        assert len({t for lam, hist in keys[1:] for t in (lam, *dict(hist))}) > 8
    cases += dense
    # points 0-2 on 255 and 256 blocks: the last replication number that fits
    # a byte, and the first that does not
    cases += [IncidenceStructure(5, ((0, 1, 2),) * r + ((3, 4),)) for r in (255, 256)]
    # 300 blocks through points 0-2: a one-byte field would read 300 as 44
    cases.append(IncidenceStructure(5, ((0, 1, 2),) * 300 + ((3, 4),)))
    for d in cases:
        codes, keys = _pair_profiles(d)
        # codes count up in order of first appearance, one per distinct profile
        assert list(dict.fromkeys(codes)) == list(range(len(keys)))
        assert len(set(keys)) == len(keys)
        upper = [k for x, row in enumerate(reference_pair_profiles(d)) for k in row[x + 1:]]
        assert [keys[c] for c in codes] == upper, d
    codes, keys = _pair_profiles(cases[-1])
    assert keys[codes[0]] == (300, ((0, 2), (300, 1)))
    # v = 260, all points on one block: a pair off the three small blocks has
    # 258 third points of triple count 1, which a one-byte count field would
    # wrap; a few pairs against direct popcounts
    v = 260
    small = [tuple(sorted(rng.sample(range(v), 3))) for _ in range(3)]
    d = IncidenceStructure(v, (tuple(range(v)), *small))
    codes, keys = _pair_profiles(d)
    masks = d.point_masks()
    largest = 0
    for y, z in [(0, 1), (17, 259), (258, 259), small[0][:2], small[1][1:], small[2][::2]]:
        common = masks[y] & masks[z]
        hist = Counter((common & masks[w]).bit_count() for w in range(v) if w not in (y, z))
        # pair y < z follows the pairs of rows 0..y-1 and the y+1..z-1 of row y
        assert keys[codes[y * v - y * (y + 1) // 2 + z - y - 1]] == (
            common.bit_count(), tuple(sorted(hist.items()))
        ), (y, z)
        largest = max(largest, *hist.values())
    assert largest > 255


def test_pair_profiles_against_known_keys(built):
    """_edge_codes returns None exactly when d2 has a profile that d1 lacks,
    and otherwise the matrices of d1's profile numbers, read from
    the full reference profiles: d1's profiles count from 1 in order of
    first appearance over the pairs x < y, and the diagonal's (-1, ()) is 0."""
    rng = random.Random(5151)
    cases = [d for kind in KINDS for d in (built[kind], complement(built[kind]))]
    pairs = [(d1, d2) for d1 in cases for d2 in cases if d1.v == d2.v]
    for _ in range(150):
        d = _random_replicated_structure(rng)
        pairs += [(d, relabel(d, rng.sample(range(d.v), d.v))), (d, _same_block_sizes(rng, d))]
    for _ in range(4):
        d = _dense_structure(rng)
        pairs += [(d, relabel(d, rng.sample(range(d.v), d.v))), (d, _same_block_sizes(rng, d))]
    wide = [IncidenceStructure(5, ((0, 1, 2),) * r + ((3, 4),)) for r in (255, 256)]
    pairs += [(wide[0], wide[1]), (wide[1], wide[0]), (wide[1], relabel(wide[1], [4, 2, 0, 3, 1]))]
    stopped = 0
    for d1, d2 in pairs:
        prof1, prof2 = reference_pair_profiles(d1), reference_pair_profiles(d2)
        keys1 = {k for row in prof1 for k in row}
        got = _edge_codes(d1, d2)
        if keys1 >= {k for row in prof2 for k in row}:
            upper = dict.fromkeys(k for x, row in enumerate(prof1) for k in row[x + 1:])
            rank = {k: i for i, k in enumerate(upper, 1)}
            rank[-1, ()] = 0
            assert got == tuple([[rank[k] for k in row] for row in prof] for prof in (prof1, prof2))
        else:
            assert got is None
            stopped += 1
    assert stopped >= 50, stopped


def _reference_corpus(built):
    """Two 40-point designs that are not isomorphic, and each built design
    and complement against two seeded relabellings."""
    rng = random.Random(606)
    pairs = [(built["pg33"], built["higman40"])]
    for kind in KINDS:
        for d in (built[kind], complement(built[kind])):
            for _ in range(2):
                perm = list(range(d.v))
                rng.shuffle(perm)
                pairs.append((d, relabel(d, perm)))
    return pairs


def test_search_matches_reference(built):
    """The same yes/no as the reference search, and a valid witness: colour
    ids are labels, not ranks, so the witness itself may differ."""
    for d1, d2 in _reference_corpus(built):
        got = find_isomorphism(d1, d2)
        assert (got is None) == (reference_find_isomorphism(d1, d2) is None)
        assert got is None or is_isomorphism(d1, d2, got)


def test_search_leaves_within_reference(monkeypatch, built):
    """Labelling colours by first appearance does not grow the search tree:
    on the same pairs the search reaches no more leaves than the reference
    search with its ranked ids."""
    leaves = Counter()
    for cls in (_IsoSearch, ReferenceIsoSearch):
        def counted(self, col1, col2, cls=cls, extract=cls._extract):
            leaves[cls] += 1
            return extract(self, col1, col2)

        monkeypatch.setattr(cls, "_extract", counted)
    for d1, d2 in _reference_corpus(built):
        find_isomorphism(d1, d2)
        reference_find_isomorphism(d1, d2)
    assert 0 < leaves[_IsoSearch] <= leaves[ReferenceIsoSearch], leaves


def _random_replicated_structure(rng):
    """Every point on the same number r of b blocks; the block sizes and the
    pair counts are whatever the draw gives.  The pair profiles never see a
    point's replication number, so where points differ in it alone both
    searches can try up to (v-1)! leaves (ROADMAP, "an iso search with a
    budget")."""
    v, b = rng.randint(2, 14), rng.randint(1, 16)
    blocks = [[] for _ in range(b)]
    r = rng.randint(0, b)
    for x in range(v):
        for j in rng.sample(range(b), r):
            blocks[j].append(x)
    return IncidenceStructure(v, tuple(map(tuple, blocks)))


def _same_block_sizes(rng, d):
    """A random structure on d's points with d's block sizes."""
    blocks = tuple(tuple(sorted(rng.sample(range(d.v), len(b)))) for b in d.blocks)
    return IncidenceStructure(d.v, blocks)


def test_search_matches_reference_on_random_structures():
    """Irregular input: each random structure against a relabelling of itself
    and against another structure with the same block sizes, most of which
    end at the profile check before any refinement."""
    rng = random.Random(909)
    early = 0
    for _ in range(200):
        d = _random_replicated_structure(rng)
        perm = list(range(d.v))
        rng.shuffle(perm)
        shuffled = relabel(d, perm)
        other = _same_block_sizes(rng, d)
        witness = find_isomorphism(d, shuffled)
        assert witness is not None and is_isomorphism(d, shuffled, witness), d
        assert reference_find_isomorphism(d, shuffled) is not None, d
        got = find_isomorphism(d, other)
        assert (got is None) == (reference_find_isomorphism(d, other) is None), (d, other)
        assert got is None or is_isomorphism(d, other, got), (d, other)
        if _edge_codes(d, other) is None:
            early += 1
            assert got is None
    assert early >= 100, early


# The reproducers of ROADMAP's iso-search items: points told apart by
# replication number alone, which the pair profiles never see
IRREGULAR_26 = IncidenceStructure(26, (
    (1, 2, 6, 12, 14, 18), (1, 3, 5, 7), (2, 4, 5, 6, 9, 10, 12, 13, 15, 16, 18, 19, 24, 25),
    (23,), (0, 4, 5, 6, 7, 8, 10, 16, 19, 21, 22, 23, 25),
    (2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 22, 23, 24, 25),
))
IRREGULAR_26_PERM = [
    8, 24, 12, 14, 19, 3, 17, 13, 1, 10, 5, 11, 20, 9, 15, 7, 4, 2, 21, 0, 18, 25, 23, 22, 16, 6,
]


@pytest.mark.parametrize("d1, d2", [
    (IRREGULAR_26, relabel(IRREGULAR_26, IRREGULAR_26_PERM)),
    (IncidenceStructure(13, ((5,), (5,))), IncidenceStructure(13, ((4,), (4,)))),
], ids=["v26", "v13-repeated-block"])
def test_replication_seed_reaches_witness_at_once(monkeypatch, d1, d2):
    """The root colouring starts from the replication numbers, so the search
    reaches a witness in at most two leaves where it once tried thousands."""
    extract, leaves = _IsoSearch._extract, []

    def counted(self, col1, col2):
        leaves.append(col1)
        return extract(self, col1, col2)

    monkeypatch.setattr(_IsoSearch, "_extract", counted)
    witness = find_isomorphism(d1, d2)
    assert witness is not None and is_isomorphism(d1, d2, witness)
    assert len(leaves) <= 2


def _irregular_structure(rng, v):
    """b blocks of random sizes on v points; replication numbers vary."""
    return IncidenceStructure(v, tuple(
        tuple(sorted(rng.sample(range(v), rng.randint(1, v)))) for _ in range(rng.randint(1, 5))
    ))


def test_search_agrees_with_brute_force_on_irregular_structures():
    """Yes/no answers on small irregular structures, against every bijection:
    each structure against a relabelling of itself and against another with
    the same block sizes."""
    rng = random.Random(1414)
    answers = Counter()
    for _ in range(300):
        d = _irregular_structure(rng, rng.randint(1, 6))
        perm = list(range(d.v))
        rng.shuffle(perm)
        for other in (relabel(d, perm), _same_block_sizes(rng, d)):
            got = find_isomorphism(d, other)
            want = brute_force_isomorphic(d, other)
            assert (got is not None) == want, (d, other)
            assert got is None or is_isomorphism(d, other, got)
            answers[want] += 1
    assert answers[True] >= 300 and answers[False] >= 100, answers
    # C6 against two triangles: equal block sizes, replication numbers and
    # profiles, so the search runs; the root refinement stalls and every
    # level-1 branch fails, so it ends at its final None
    c6 = IncidenceStructure(6, ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)))
    triangles = IncidenceStructure(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    assert _edge_codes(c6, triangles) is not None
    assert find_isomorphism(c6, triangles) is None and not brute_force_isomorphic(c6, triangles)


def test_refine_matches_counter_refine(built):
    """The grouped refinement gives the partitions that counting every
    point's signature gave, on edge codes with the same classes."""
    rng = random.Random(4242)
    cases = [d for kind in KINDS for d in (built[kind], complement(built[kind]))]
    cases += [_random_structure(rng) for _ in range(40)]
    for d1 in cases:
        n = d1.v
        perm = list(range(n))
        rng.shuffle(perm)
        d2 = relabel(d1, perm)
        codes = _edge_codes(d1, d2)
        new = _IsoSearch(d1, d2, *codes)
        old = CounterRefineIsoSearch(d1, d2)
        flat = [[e for row in en for e in row] for en in (*codes, old.en1, old.en2)]
        assert first_appearance(flat[:2]) == first_appearance(flat[2:])
        for _ in range(5):
            colours = rng.randint(1, n)
            col1 = [rng.randrange(colours) for _ in range(n)]
            col2 = [0] * n
            for x, y in enumerate(perm):
                col2[y] = col1[x]
            unrelated = rng.sample(col1, n)
            for c1, c2 in ((col1, col2), (col1, unrelated)):
                assert first_appearance(new._refine(c1, c2)) == first_appearance(
                    old._refine(c1, c2)
                ), d1


def test_columnar_keys_match_row_keys(built):
    """The keys laid out by shape columns equal the keys built row by row,
    point by point, so every refinement gives the same colour ids, not only
    the same partition.  The built designs have one row shape each; on the
    path P7 the end points' shape interleaves with the inner points', so
    the keys go back to point order through the restoring getter."""
    rng = random.Random(3636)
    path = IncidenceStructure(7, tuple((x, x + 1) for x in range(6)))
    cases = [d for kind in KINDS for d in (built[kind], complement(built[kind]))]
    cases += [path] + [_random_structure(rng) for _ in range(60)]
    layouts = Counter()
    for d1 in cases:
        n = d1.v
        perm = list(range(n))
        rng.shuffle(perm)
        d2 = relabel(d1, perm)
        codes = _edge_codes(d1, d2)
        new = _IsoSearch(d1, d2, *codes)
        old = RowKeysIsoSearch(d1, d2, *codes)
        layouts[len(new.rows1[0]) == 1, new.rows1[1] is None] += 1
        for _ in range(5):
            col1 = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
            col2 = [0] * n
            for x, y in enumerate(perm):
                col2[y] = col1[x]
            assert list(new._keys(new.rows1, col1)) == old._keys(old.rows1, col1), d1
            assert list(new._keys(new.rows2, col2)) == old._keys(old.rows2, col2), d1
            for c2 in (col2, rng.sample(col1, n)):
                assert new._refine(col1, c2) == old._refine(col1, c2), d1
    assert layouts[True, True] >= 8 and layouts[False, False] >= 10, layouts
    assert _IsoSearch(path, path, *_edge_codes(path, path)).rows1[1] is not None


def _wide_edge_codes(n, second, rng):
    """Edge matrices given directly: id 1 off the diagonal, id 2 on the
    pairs of each point x of second with the points second[x]; d2's are
    d1's relabelled by the returned permutation."""
    en1 = [[n * (x != y) for y in range(n)] for x in range(n)]
    for x, ys in second.items():
        for y in ys:
            en1[x][y] = en1[y][x] = 2 * n
    perm = list(range(n))
    rng.shuffle(perm)
    en2 = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            en2[perm[x]][perm[y]] = en1[x][y]
    return en1, en2, perm


def test_refine_matches_counter_refine_wide_fields():
    """At v = 300 a colour count can pass 255.  In one colour, point 0 sees
    260 points on id 1 and point 1 sees 5.  A run that is not a row's
    longest holds at most (v - 1) / 2 points, so at v = 300 no packed sum
    overflows a byte; at v = 516 the id-2 run of points 0 and 1 holds 257.
    Point 0 sees 256 points of colour 1 and one of colour 3 there, and
    point 1 sees 257 of colour 2: with one-byte fields both sums would be
    2^16 + 2^24 and the two points would stay in one class.  Every colouring
    splits points 0 and 1.  The reference object is built without
    reference_pair_profiles, which is cubic in v."""
    rng = random.Random(3003)
    n = 300
    second = {0: [*range(2, 21), *range(280, 300)], 1: [*range(2, 277), *range(280, 299)]}
    colourings = [[0] * n, [int(x >= 280) for x in range(n)]]
    colourings += [[rng.randrange(colours) for _ in range(n)] for colours in (2, 3, 40)]
    cases = [(n, second, colourings)]
    n = 516
    second = {0: [*range(2, 258), 515], 1: [*range(258, 515)]}
    cases.append((n, second, [[0, 0] + [1] * 256 + [2] * 257 + [3]]))
    for n, second, colourings in cases:
        en1, en2, perm = _wide_edge_codes(n, second, rng)
        empty = IncidenceStructure(n, ())
        new = _IsoSearch(empty, empty, en1, en2)
        old = CounterRefineIsoSearch.__new__(CounterRefineIsoSearch)
        old.n, old.en1, old.en2 = n, en1, en2
        for col1 in colourings:
            col2 = [0] * n
            for x, y in enumerate(perm):
                col2[y] = col1[x]
            refined = new._refine(col1, col2)
            assert first_appearance(refined) == first_appearance(old._refine(col1, col2))
            assert refined is not None and refined[0][0] != refined[0][1]
            unrelated = rng.sample(col1, n)
            assert first_appearance(new._refine(col1, unrelated)) == first_appearance(
                old._refine(col1, unrelated)
            )


def test_flat_anchor_signature_matches_nested(built):
    """_refine gives the same colour ids, or the same None, on the flat
    anchor signatures as on the nested ones the search built before, at
    anchor depths 0-4.  d2 is a relabelling of d1; its anchors, x and
    colouring are either the images of d1's or drawn at random."""
    rng = random.Random(5151)
    cases = [d for kind in KINDS for d in (built[kind], complement(built[kind]))]
    cases += [_random_structure(rng) for _ in range(40)]
    answers = Counter()
    for d1 in cases:
        n = d1.v
        perm = list(range(n))
        rng.shuffle(perm)
        d2 = relabel(d1, perm)
        searcher = _IsoSearch(d1, d2, *_edge_codes(d1, d2))
        m1, m2 = searcher.masks1, searcher.masks2
        flag = [False] * n
        for depth in range(min(5, n)):
            *anchors1, x = rng.sample(range(n), depth + 1)
            anchors1 = tuple(anchors1)
            col1 = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
            col2 = [0] * n
            for z, y in enumerate(perm):
                col2[y] = col1[z]
            *others, other = rng.sample(range(n), depth + 1)
            for anchors2, y, c2 in (
                (tuple(perm[a] for a in anchors1), perm[x], col2),
                (tuple(others), other, rng.sample(col1, n)),
            ):
                flat = searcher._refine(
                    _anchor_signature(m1, col1, anchors1, x, flag),
                    _anchor_signature(m2, c2, anchors2, y, flag),
                )
                nested = searcher._refine(
                    reference_anchor_signature(m1, col1, anchors1, x),
                    reference_anchor_signature(m2, c2, anchors2, y),
                )
                assert flat == nested, (d1, depth)
                answers[depth, flat is None] += 1
        assert flag == [False] * n
    assert all(answers[depth, False] for depth in range(5)), answers
    assert sum(answers[depth, True] for depth in range(5)) >= 50, answers


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), comp=st.booleans(), data=st.data())
def test_relabelled_design_witness_property(kind, comp, data):
    d = build(kind)
    if comp:
        d = complement(d)
    perm = data.draw(st.permutations(range(d.v)), label="perm")
    shuffled = relabel(d, perm)
    witness = find_isomorphism(d, shuffled)
    assert witness is not None
    assert is_isomorphism(d, shuffled, witness)


def test_is_isomorphism_rejects_wrong_map(built):
    d = built["menon36"]
    assert is_isomorphism(d, d, list(range(36)))
    wrong = list(range(36))
    wrong[0], wrong[1] = wrong[1], wrong[0]
    # swapping two points of a block design is almost never an automorphism;
    # check it is actually rejected here
    assert not is_isomorphism(d, d, wrong)
    assert not is_isomorphism(d, d, list(range(35)))
    assert not is_isomorphism(d, d, [0] + list(range(35)))


def test_size_mismatch_fast_path(built):
    assert find_isomorphism(built["menon36"], built["pg33"]) is None
