import importlib

import pytest

from psu4designs import catalog, designs, exactmath, geometry, permgroup, sieve

MODULES = ("exactmath", "catalog", "sieve", "geometry", "designs", "permgroup")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"psu4designs.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _fano():
    return designs.IncidenceStructure(7, tuple(map(tuple, geometry.pg_hyperplanes(3, 2))))


def _cycle():
    return permgroup.PermutationAction(3, ((1, 2, 0),))


# Each package record: how to make one, and its field names in order.
RECORDS = {
    "PrimePower": (lambda: exactmath.PrimePower.of(2, 1), ("q", "p", "a")),
    "Factorization": (lambda: exactmath.factorize(360), ("pairs",)),
    "DesignParams": (lambda: exactmath.DesignParams(36, 15, 6), ("v", "k", "lam")),
    "PrimeField": (lambda: geometry.PrimeField(3), ("p",)),
    "ProjectivePoint": (lambda: geometry.ProjectivePoint((0, 1, 2)), ("coords",)),
    "QuadraticSpace": (geometry.design_space, ("field", "dim", "gram")),
    "SubgroupCase": (lambda: catalog.cases_for(exactmath.PrimePower.of(2, 1))[0],
                     ("line", "parabolic", "subfield")),
    "IncidenceStructure": (_fano, ("v", "blocks")),
    "VerificationFailure": (lambda: designs.VerificationFailure("point_pair", (0, 1)),
                            ("axiom", "witness")),
    "VerifiedDesign": (lambda: designs.VerifiedDesign.of(_fano()), ("structure", "params")),
    "FeasibilityResult": (lambda: sieve.FeasibilityResult([], {}),
                          ("candidates", "rejections", "tits_violated")),
    "CaseOutcome": (lambda: sieve.scan_all(2, 1, [8]).outcomes[0],
                    ("line", "q", "v", "k_bound", "status", "reason", "candidates", "rejections",
                     "subfield")),
    "ScanReport": (lambda: sieve.scan_all(2, 1, [8]), ("p_max", "a_max", "outcomes")),
    "PermutationAction": (_cycle, ("degree", "generators")),
    "StabilizerChain": (lambda: permgroup.stabilizer_chain(_cycle()), ("base", "transversals", "order")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    """Name, field order, repr, hash and immutability of every record."""
    make, names = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    values = tuple(getattr(record, n) for n in names)
    assert repr(record) == f"{name}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    try:
        want = hash(values)
    except TypeError:  # a record holding a list or dict is unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want
    with pytest.raises(AttributeError):
        setattr(record, names[0], values[0])
    assert type(record)(*values) == record


@pytest.mark.parametrize("make, message", [
    (lambda: designs.IncidenceStructure(3, ((0, 1), (1, 3))),
     "block 1 has an out-of-range point index"),
    (lambda: designs.IncidenceStructure(3, ((-1, 0),)), "block 0 has an out-of-range point index"),
    (lambda: designs.IncidenceStructure(3, ((0, 2), (2, 1))), "block 1 is not strictly sorted"),
    (lambda: designs.IncidenceStructure(3, ((1, 1),)), "block 0 is not strictly sorted"),
    (lambda: exactmath.Factorization(((3, 1), (2, 1))), "primes must be strictly increasing"),
    (lambda: exactmath.Factorization(((2, 0),)), "exponents must be >= 1"),
    (lambda: exactmath.DesignParams(36, 15, 7), r"k\(k-1\) = lambda\(v-1\) fails for \(36, 15, 7\)"),
    (lambda: exactmath.PrimePower(4, 2, 0), "exponent must be >= 1"),
    (lambda: exactmath.PrimePower(8, 2, 2), r"8 != 2\^2"),
    (lambda: geometry.PrimeField(4), "need a prime modulus <= 257, got 4"),
    (lambda: geometry.QuadraticSpace(geometry.PrimeField(3), 2, ((1, 0),)),
     "Gram matrix shape does not match dim"),
    (lambda: permgroup.PermutationAction(3, ((0, 0, 1),)), "not a permutation of 0..n-1"),
], ids=[
    "incidence-range", "incidence-negative", "incidence-order", "incidence-repeat",
    "factorization-order", "factorization-exponent", "design-params", "prime-power-exponent",
    "prime-power-value", "prime-field", "quadratic-space", "permutation-action",
])
def test_record_checks(make, message):
    """Constructing a record runs its checks, with their messages."""
    with pytest.raises(ValueError, match=message):
        make()
