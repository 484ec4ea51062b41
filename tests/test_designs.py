import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_find_isomorphism, reference_pair_profiles
from psu4designs.designs import (
    KINDS,
    DesignFormatError,
    IncidenceStructure,
    VerificationFailure,
    build,
    complement,
    find_isomorphism,
    flags,
    format_design,
    is_isomorphism,
    parse_design,
    read_design,
    relabel,
    verify_symmetric,
    write_design,
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
    result = verify_symmetric(d)
    assert isinstance(result, VerificationFailure)
    assert result.axiom in ("point_pair", "nontriviality")


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


def test_pair_profiles_match_reference(built):
    cases = [d for kind in KINDS for d in (built[kind], complement(built[kind]))]
    rng = random.Random(2024)
    cases += [_random_structure(rng) for _ in range(200)]
    # 300 blocks through points 0-2: a one-byte field would read 300 as 44
    cases.append(IncidenceStructure(5, ((0, 1, 2),) * 300 + ((3, 4),)))
    for d in cases:
        assert _pair_profiles(d) == reference_pair_profiles(d), d
    assert _pair_profiles(cases[-1])[0][1] == (300, ((0, 2), (300, 1)))


def test_search_matches_reference(built):
    """The same witness, not just a valid one: colour ids and branch order
    are unchanged."""
    rng = random.Random(606)
    pairs = [(built["pg33"], built["higman40"])]
    for kind in KINDS:
        for d in (built[kind], complement(built[kind])):
            for _ in range(2):
                perm = list(range(d.v))
                rng.shuffle(perm)
                pairs.append((d, relabel(d, perm)))
    for d1, d2 in pairs:
        assert find_isomorphism(d1, d2) == reference_find_isomorphism(d1, d2)


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


def test_size_mismatch_fast_path(built):
    assert find_isomorphism(built["menon36"], built["pg33"]) is None


def test_verified_design_pairing(built):
    from psu4designs.designs import VerifiedDesign

    vd = VerifiedDesign.of(built["menon36"])
    assert vd.params.triple() == (36, 15, 6)
    broken = IncidenceStructure(5, tuple(tuple(range(5)) for _ in range(5)))
    with pytest.raises(ValueError):
        VerifiedDesign.of(broken)
