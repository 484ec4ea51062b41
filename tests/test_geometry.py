import random
from collections import Counter
from operator import mul

import pytest
from helpers import normalize, reference_pg_hyperplanes, reference_projective_points

from psu4designs.exactmath import is_prime
from psu4designs.geometry import (
    _dot_products,
    ISOTROPIC,
    NONSQUARE_TYPE,
    SQUARE_TYPE,
    class_points,
    classify_point,
    design_space,
    pg_hyperplanes,
    projective_points,
    reflection,
)
from psu4designs.permgroup import orthogonal_reflection_action


def test_projective_point_counts():
    assert len(projective_points(5, 3)) == 121
    assert len(projective_points(4, 3)) == 40
    assert len(projective_points(1, 3)) == 1
    with pytest.raises(ValueError, match="dim must be >= 1"):
        projective_points(0, 3)


def test_projective_points_match_reference():
    """The normal forms listed in product order are the sorted set of the
    normalised nonzero vectors."""
    for p in (2, 3, 5, 7):
        for dim in range(1, 6):
            assert projective_points(dim, p) == reference_projective_points(dim, p)


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
def test_projective_points_need_a_prime(p):
    with pytest.raises(ValueError, match=f"need a prime modulus, got {p}"):
        projective_points(2, p)


def test_design_space_is_nondegenerate():
    """diag(1,1,1,1,2) is symmetric with determinant 2, a unit mod the odd
    prime 3."""
    space = design_space()
    assert space.p > 2 and is_prime(space.p)
    assert tuple(tuple(c % 3 for c in row) for row in space.gram) == tuple(
        tuple((2 if i == 4 else 1) if i == j else 0 for j in range(5)) for i in range(5)
    )


@pytest.mark.parametrize("coords", [(1, 0, 0), (1, 0, 0, 0, 0, 1)])
def test_wrong_length_vectors_rejected(coords):
    space = design_space()
    with pytest.raises(ValueError, match=f"need a vector of length 5, got {len(coords)}"):
        classify_point(space, coords)
    with pytest.raises(ValueError, match=f"need a vector of length 5, got {len(coords)}"):
        reflection(space, coords)
    with pytest.raises(ValueError, match=f"need a vector of length 5, got {len(coords)}"):
        space.bilinear(coords, (1, 0, 0, 0, 0))
    with pytest.raises(ValueError, match=f"need a vector of length 5, got {len(coords)}"):
        space.bilinear((1, 0, 0, 0, 0), coords)


def test_classification_counts():
    space = design_space()
    counts = Counter(classify_point(space, x) for x in projective_points(5, 3))
    assert counts == {ISOTROPIC: 40, SQUARE_TYPE: 36, NONSQUARE_TYPE: 45}


def test_classification_examples():
    space = design_space()
    assert classify_point(space, (1, 0, 0, 0, 0)) == SQUARE_TYPE
    assert classify_point(space, (1, 1, 0, 0, 0)) == NONSQUARE_TYPE


def test_classification_scaling_invariant():
    space = design_space()
    rng = random.Random(5)
    points = projective_points(5, 3)
    for _ in range(50):
        x = rng.choice(points)
        scaled = tuple(2 * c % 3 for c in x)
        y = normalize(scaled, 3)
        assert classify_point(space, x) == classify_point(space, y)


def test_class_points_keep_point_order():
    space = design_space()
    points = projective_points(5, 3)
    for point_class, size in ((ISOTROPIC, 40), (SQUARE_TYPE, 36), (NONSQUARE_TYPE, 45)):
        got = class_points(point_class)
        assert len(got) == size
        assert got == [x for x in points if classify_point(space, x) == point_class]


@pytest.mark.parametrize("make", [class_points, orthogonal_reflection_action])
def test_unknown_point_class_rejected(make):
    """A class name other than the three raises, not an empty point list;
    the reflection action gets the check from ``class_points``."""
    with pytest.raises(ValueError, match=r"^unknown point class 'hyperbolic'$"):
        make("hyperbolic")


def test_reflection_defining_properties():
    space = design_space()
    p = 3
    v = (1, 1, 0, 0, 0)
    assert space.form(v) != 0
    m = reflection(space, v)
    image_v = tuple(sum(m[i][j] * v[j] for j in range(5)) % p for i in range(5))
    assert image_v == tuple(-c % p for c in v)
    # fixes the mirror
    w = (0, 0, 1, 0, 0)
    assert space.bilinear(v, w) == 0
    image_w = tuple(sum(m[i][j] * w[j] for j in range(5)) % p for i in range(5))
    assert image_w == w
    # involution
    square = tuple(
        tuple(sum(m[i][k] * m[k][j] for k in range(5)) % p for j in range(5))
        for i in range(5)
    )
    assert square == tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))


def test_reflections_are_isometries():
    space = design_space()
    p = 3
    gram = space.gram
    for v in projective_points(5, 3):
        if classify_point(space, v) == ISOTROPIC:
            with pytest.raises(ValueError):
                reflection(space, v)
            continue
        m = reflection(space, v)
        mtgm = tuple(
            tuple(
                sum(m[a][i] * gram[a][b] * m[b][j] for a in range(5) for b in range(5)) % p
                for j in range(5)
            )
            for i in range(5)
        )
        assert mtgm == tuple(tuple(c % p for c in row) for row in gram)


def test_pg_hyperplanes_40_13_4():
    blocks = pg_hyperplanes(4, 3)
    assert len(blocks) == 40
    assert all(len(b) == 13 for b in blocks)
    for i in range(40):
        for j in range(i + 1, 40):
            assert len(set(blocks[i]) & set(blocks[j])) == 4


def test_pg_hyperplanes_fano():
    blocks = pg_hyperplanes(3, 2)
    assert len(blocks) == 7
    assert all(len(b) == 3 for b in blocks)
    for i in range(7):
        for j in range(i + 1, 7):
            assert len(set(blocks[i]) & set(blocks[j])) == 1
    with pytest.raises(ValueError, match="dim must be >= 2"):
        pg_hyperplanes(1, 3)


@pytest.mark.parametrize("dim, p", [(3, 2), (4, 3), (5, 3), (3, 5), (3, 17)])
def test_packed_dot_products_match_per_point(dim, p):
    """One packed sum against a per-point dot product, on every point of
    PG(dim-1, p), for coefficients that are negative or at least p.  At
    p = 17 a field holds up to 3 * 16^2 = 768, so it needs two bytes."""
    rng = random.Random(dim * 100 + p)
    points = projective_points(dim, p)
    dots = _dot_products(points, p)
    vectors = [tuple(rng.randint(-3 * p, 3 * p) for _ in range(dim)) for _ in range(30)]
    vectors += [(p - 1,) * dim, (1 - p,) * dim, (2 * p - 1,) * dim, (0,) * dim]
    for c in vectors:
        assert list(dots(c)) == [sum(map(mul, c, x)) % p for x in points], c


def test_packed_dot_products_edge_inputs():
    """Points of mixed length read as zero-padded, as the per-point product
    reads them; coordinates at least p are reduced; a modulus whose fields
    would pass 8 bytes takes the per-point path."""
    mixed = [(1, 4, 2), (3,), (), (2, 2)]
    for c in [(1, 2, 3), (4,), (-1, 5, 0, 7), ()]:
        assert list(_dot_products(mixed, 5)(c)) == [sum(map(mul, c, x)) % 5 for x in mixed]
    p = 2**61 - 1
    points = [(1, 0), (0, 1), (1, p - 1), (3, 2)]
    for c in [(p - 1, p - 2), (-5, 3 * p + 1)]:
        assert list(_dot_products(points, p)(c)) == [sum(map(mul, c, x)) % p for x in points]


@pytest.mark.parametrize("dim, p", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (3, 5), (2, 7), (3, 17)])
def test_pg_hyperplanes_match_reference(dim, p):
    assert pg_hyperplanes(dim, p) == reference_pg_hyperplanes(dim, p)
