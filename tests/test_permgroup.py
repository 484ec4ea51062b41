import hashlib
import itertools
import math
import random

import pytest
from helpers import (
    all_reflections_action,
    flags,
    orbit,
    orbits,
    reference_compose,
    reference_induce,
    reference_induced_block_action,
    reference_is_flag_transitive,
    reference_is_primitive,
    reference_stabilizer_chain,
    reference_stabilizer_orbit_sizes,
    relabel,
    sifts,
)

from psu4designs import geometry, permgroup
from psu4designs.designs import KIND_POINT_CLASS, KINDS, IncidenceStructure, build, complement
from psu4designs.geometry import SQUARE_TYPE, classify_point, design_space, projective_points, reflection
from psu4designs.permgroup import (
    NotTransitiveError,
    PermutationAction,
    compose,
    group_order,
    identity_perm,
    induce,
    inverse,
    induced_block_action,
    is_flag_transitive,
    is_primitive,
    stabilizer_chain,
    stabilizer_orbit_sizes,
)


def cyclic_action(n):
    return PermutationAction(n, (tuple((i + 1) % n for i in range(n)),))


def symmetric_action(n):
    cycle = tuple((i + 1) % n for i in range(n))
    swap = tuple([1, 0] + list(range(2, n)))
    return PermutationAction(n, (cycle, swap))


def test_action_validation():
    with pytest.raises(ValueError):
        PermutationAction(3, ((0, 0, 1),))
    with pytest.raises(ValueError):
        PermutationAction(3, ((0, 1),))


def test_induce_identity_and_scalar():
    points = projective_points(5, 3)
    ident = tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))
    scalar = tuple(tuple(2 if i == j else 0 for j in range(5)) for i in range(5))
    action = induce([ident, scalar], points, 3)
    assert action.generators[0] == identity_perm(121)
    assert action.generators[1] == identity_perm(121)


def test_induce_rejects_wrong_point_set():
    points = projective_points(5, 3)[:10]
    ident = tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))
    shift = tuple(tuple(1 if (i + 1) % 5 == j else 0 for j in range(5)) for i in range(5))
    with pytest.raises(ValueError):
        induce([ident, shift], points, 3)
    with pytest.raises(ValueError, match="empty point list"):
        induce([ident], [], 3)


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_induce_rejects_non_prime_modulus(p):
    ident = ((1, 0), (0, 1))
    with pytest.raises(ValueError, match=rf"^need a prime modulus, got {p}$"):
        induce([ident], projective_points(2, 3), p)


def test_induce_matches_reference():
    """The reflections along all 81 mirrors, on each point class and on all
    121 points."""
    space = design_space()
    points = projective_points(5, 3)
    matrices = [
        reflection(space, x) for x in points if classify_point(space, x) != geometry.ISOTROPIC
    ]
    assert len(matrices) == 81
    for universe in [geometry.class_points(c) for c in KIND_POINT_CLASS.values()] + [points]:
        assert induce(matrices, universe, 3) == reference_induce(matrices, universe, 3)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


_IDENT = tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))
_SHIFT = tuple(tuple(1 if (i + 1) % 5 == j else 0 for j in range(5)) for i in range(5))
_DROP_FIRST = tuple(tuple(1 if i == j > 0 else 0 for j in range(5)) for i in range(5))


@pytest.mark.parametrize("matrices, points, message", [
    ([_IDENT, _SHIFT], projective_points(5, 3)[:10], "matrix maps (0:0:0:1:2) outside the point set"),
    ([_DROP_FIRST], projective_points(5, 3), "zero vector has no projective normal form"),
    ([_IDENT], [], "empty point list"),
    # not normal forms: 2x and an unreduced entry never match an image
    ([_IDENT], [(2, 0, 0, 0, 0)], "outside the point set"),
    ([_IDENT], [(1, 3, 0, 0, 0)], "outside the point set"),
    ([_IDENT], projective_points(5, 3) + projective_points(5, 3)[:1], "not a permutation"),
    # the first point without an image has a coordinate at least p, and
    # the message names it as listed
    ([_IDENT], projective_points(5, 3)[:4] + [(1, 5, 0, 0, 0)], "matrix maps (1:5:0:0:0) outside the point set"),
    ([_DROP_FIRST], [(0, 0, 0, 0, 1), (4, 0, 0, 0, 0)], "zero vector has no projective normal form"),
], ids=["wrong-set", "zero-image", "empty", "scaled", "unreduced", "repeated", "past-p-outside", "past-p-zero"])
def test_induce_errors_match_reference(matrices, points, message):
    got = _outcome(induce, matrices, points, 3)
    assert got == _outcome(reference_induce, matrices, points, 3)
    assert message in got


def test_induce_empty_matrix_maps_to_zero_vector():
    """A matrix with no rows maps every point to (), the zero vector of
    dimension 0, as the per-point products did (the reference indexes rows
    by the point length, so it cannot take this input)."""
    with pytest.raises(ValueError) as info:
        induce([_IDENT, ()], projective_points(5, 3), 3)
    assert str(info.value) == "zero vector has no projective normal form"


def test_reflection_fixed_points_on_menon_set():
    space = design_space()
    points = projective_points(5, 3)
    universe = [x for x in points if classify_point(space, x) == SQUARE_TYPE]
    mirror = next(x for x in points if classify_point(space, x) == geometry.NONSQUARE_TYPE)
    action = induce([reflection(space, mirror)], universe, 3)
    g = action.generators[0]
    assert compose(g, g) == identity_perm(36)
    fixed = {i for i in range(36) if g[i] == i}
    expected = {i for i, x in enumerate(universe) if space.bilinear(mirror, x) == 0}
    assert fixed == expected


def test_orbit_basics():
    action = PermutationAction(5, ())
    assert orbit(action, 3) == {3}
    three_cycle = PermutationAction(5, ((1, 2, 0, 3, 4),))
    assert orbit(three_cycle, 0) == {0, 1, 2}
    assert orbit(three_cycle, 4) == {4}
    assert sorted(len(o) for o in orbits(three_cycle)) == [1, 1, 3]


def test_group_order_small():
    assert group_order(PermutationAction(4, ())) == 1
    assert group_order(symmetric_action(5)) == 120
    assert group_order(cyclic_action(6)) == 6


def test_reflection_actions_order(reflection_actions):
    for action in reflection_actions.values():
        assert group_order(action) == 51840


def test_order_invariant_under_redundant_generators(reflection_actions):
    rng = random.Random(11)
    action = reflection_actions["menon36"]
    gens = list(action.generators)
    for _ in range(3):
        a, b = rng.choice(gens), rng.choice(gens)
        gens.append(compose(a, b))
    augmented = PermutationAction(action.degree, tuple(gens))
    assert group_order(augmented) == group_order(action)


def test_group_order_intransitive():
    # S3 on {0,1,2} x C2 on {3,4}
    s3_c2 = PermutationAction(5, ((1, 0, 2, 3, 4), (1, 2, 0, 3, 4), (0, 1, 2, 4, 3)))
    assert group_order(s3_c2) == 12
    # C2 on {0,1} x S3 on {2,3,4}: the base starts in the largest orbit
    c2_s3 = PermutationAction(5, ((1, 0, 2, 3, 4), (0, 1, 3, 2, 4), (0, 1, 3, 4, 2)))
    chain = stabilizer_chain(c2_s3)
    assert chain.order == 12
    assert chain.base[0] == 2
    with pytest.raises(ValueError, match="desk-scale guard"):
        stabilizer_chain(PermutationAction(10001, ()))


@pytest.mark.parametrize("kind", sorted(KIND_POINT_CLASS))
def test_five_mirrors_generate_the_reflection_group(kind, reflection_actions):
    five = reflection_actions[kind]
    full = all_reflections_action(KIND_POINT_CLASS[kind])
    # H <= G and |H| = |G|, so H = G
    assert len(five.generators) == 5
    assert set(five.generators) <= set(full.generators)
    chain5, chain81 = stabilizer_chain(five), stabilizer_chain(full)
    assert chain5.order == chain81.order == 51840
    assert all(sifts(chain5, g) for g in full.generators)
    assert stabilizer_orbit_sizes(five, 0) == stabilizer_orbit_sizes(full, 0)
    assert is_primitive(five) == is_primitive(full)
    for design in (build(kind), complement(build(kind))):
        got = [
            is_flag_transitive(action, design, induced_block_action(action, design))
            for action in (five, full)
        ]
        assert got[0] == got[1]


def test_mirrors_are_the_first_generating_five(reflection_actions):
    """No 5-subset of the 81 reflections before the chosen one, in
    combinations order, generates the whole group."""
    full = all_reflections_action(geometry.SQUARE_TYPE)
    five = reflection_actions["menon36"].generators
    chosen = tuple(sorted(full.generators.index(g) for g in five))
    for subset in itertools.combinations(range(len(full.generators)), 5):
        action = PermutationAction(36, tuple(full.generators[i] for i in subset))
        # transitivity is necessary and cheap; it spares most chain builds
        generates = len(orbit(action, 0)) == 36 and group_order(action) == 51840
        assert generates == (subset == chosen)
        if subset == chosen:
            break


def test_transitivity_of_reflection_actions(reflection_actions):
    for action in reflection_actions.values():
        assert len(orbit(action, 0)) == action.degree


def test_primitivity():
    for n in (3, 5, 7, 11, 13):
        assert is_primitive(cyclic_action(n))  # prime degree
        assert is_primitive(_dihedral(n))
    assert not is_primitive(cyclic_action(4))  # blocks {0,2},{1,3}
    for n in (4, 6, 8, 9, 10, 12, 15):
        assert not is_primitive(cyclic_action(n))
        assert not is_primitive(_dihedral(n))
    for k in range(2, 7):
        assert not is_primitive(_wreath_s2_sk(k))
    with pytest.raises(NotTransitiveError):
        is_primitive(PermutationAction(5, ((1, 2, 0, 3, 4),)))
    with pytest.raises(NotTransitiveError):
        is_primitive(_union(_dihedral(4), symmetric_action(4)))


def test_reflection_actions_primitive(reflection_actions):
    for action in reflection_actions.values():
        assert is_primitive(action)


def test_stabilizer_orbit_sizes(reflection_actions):
    assert stabilizer_orbit_sizes(reflection_actions["menon36"], 0) == [1, 15, 20]
    assert stabilizer_orbit_sizes(reflection_actions["minus45"], 0) == [1, 12, 32]
    assert stabilizer_orbit_sizes(reflection_actions["higman40"], 0) == [1, 12, 27]


def test_stabilizer_orbits_partition_degree(reflection_actions):
    for action in reflection_actions.values():
        sizes = stabilizer_orbit_sizes(action, 0)
        assert sum(sizes) == action.degree


def test_intransitive_input_raises_before_schreier_generators(monkeypatch, reflection_actions):
    """One orbit closure rejects intransitive input before the stabilizer's
    transversal, and so any Schreier generator, is built: here the 36-point
    action with a fixed point added."""
    menon = reflection_actions["menon36"]
    padded = PermutationAction(37, tuple(g + (36,) for g in menon.generators))

    def unreachable(*args):
        raise AssertionError("_grow ran on intransitive input")

    monkeypatch.setattr(permgroup, "_grow", unreachable)
    with pytest.raises(NotTransitiveError):
        is_primitive(padded)
    with pytest.raises(NotTransitiveError):
        stabilizer_orbit_sizes(padded, 0)


def test_desk_scale_guard_before_transitivity(monkeypatch):
    """Primitivity and suborbits refuse degree 10^4 + 1 before the
    transitivity closure and before the transversal or any Schreier
    generator is built."""
    cycle = PermutationAction(10001, (tuple(range(1, 10001)) + (0,),))

    def unreachable(*args):
        raise AssertionError("work past the desk-scale guard")

    monkeypatch.setattr(permgroup, "_closure", unreachable)
    monkeypatch.setattr(permgroup, "_grow", unreachable)
    with pytest.raises(ValueError, match="desk-scale guard"):
        is_primitive(cycle)
    with pytest.raises(ValueError, match="desk-scale guard"):
        stabilizer_orbit_sizes(cycle, 0)


def test_regular_action_rank_equals_degree():
    assert stabilizer_orbit_sizes(cyclic_action(5), 0) == [1, 1, 1, 1, 1]
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="point out of range"):
            stabilizer_orbit_sizes(symmetric_action(3), bad)


def test_flag_transitivity(reflection_actions):
    cases = [
        ("menon36", build("menon36"), True),
        ("minus45", build("minus45"), True),
        ("higman40", complement(build("higman40")), True),
        ("higman40", build("higman40"), False),
    ]
    for name, design, want in cases:
        action = reflection_actions[name]
        block_action = induced_block_action(action, design)
        assert is_flag_transitive(action, design, block_action) == want
        if want:
            assert group_order(action) % len(flags(design)) == 0


def test_flag_orbit_of_identity_only():
    design = build("menon36")
    ident = PermutationAction(36, (identity_perm(36),))
    block_ident = PermutationAction(36, (identity_perm(36),))
    assert not is_flag_transitive(ident, design, block_ident)


def test_incompatible_block_pairing_rejected(reflection_actions):
    action = reflection_actions["menon36"]
    design = build("menon36")
    block_action = induced_block_action(action, design)
    # swap two block generators out of step with the point generators
    gens = list(block_action.generators)
    gens[0], gens[1] = gens[1], gens[0]
    broken = PermutationAction(block_action.degree, tuple(gens))
    with pytest.raises(ValueError):
        is_flag_transitive(action, design, broken)


def test_block_action_rejects_non_automorphism():
    design = build("menon36")
    cycle = tuple((i + 1) % 36 for i in range(36))
    with pytest.raises(ValueError):
        induced_block_action(PermutationAction(36, (cycle,)), design)
    with pytest.raises(ValueError, match="action degree differs from the point count"):
        induced_block_action(cyclic_action(35), design)


def test_compose_and_inverse_short():
    """itemgetter takes a bare index for one item and none for zero; both
    lengths keep the tuple result."""
    for n in (0, 1, 2):
        perms = list(itertools.permutations(range(n)))
        for p in perms:
            assert compose(p, inverse(p)) == compose(inverse(p), p) == identity_perm(n)
            for q in perms:
                assert compose(p, q) == reference_compose(p, q)
                assert type(compose(p, q)) is tuple
    rng = random.Random(17)
    for _ in range(50):
        p, q = (tuple(rng.sample(range(9), 9)) for _ in range(2))
        assert compose(p, q) == reference_compose(p, q)


def _random_action(rng, n):
    """Up to three generators: uniform permutations, permutations of one
    random subset (intransitive), or block permutations of a random block
    system (imprimitive), with the identity and repeats mixed in."""
    gens = []
    for _ in range(rng.randint(0, 3)):
        shape = rng.randrange(4)
        if shape == 0 or n < 2:
            g = rng.sample(range(n), n)
        elif shape == 1:
            moved = rng.sample(range(n), rng.randint(2, n))
            g = list(range(n))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                g[a] = b
        elif shape == 2:
            d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            blocks = rng.sample(range(n // d), n // d)
            g = [0] * n
            for x in range(n):
                b, r = divmod(x, d)
                g[x] = blocks[b] * d + (r + b) % d
        else:
            g = list(range(n))
        gens.append(tuple(g))
    if gens and rng.random() < 0.2:
        gens.append(rng.choice(gens))
    return PermutationAction(n, tuple(gens))


def test_stabilizer_chain_matches_reference():
    """The order and the first base point of the reference chain, and every
    stored transversal element u at level i maps base[i] to its key and
    fixes base[:i]."""
    rng = random.Random(1010)
    for n in range(13):
        # a uniform pair of degree 11 or 12 generates A_n or S_n, whose
        # reference chain is the slow part of this test
        for _ in range(12 if n <= 10 else 4):
            action = _random_action(rng, n)
            got, want = stabilizer_chain(action), reference_stabilizer_chain(action)
            assert (got.order, got.base[:1]) == (want.order, want.base[:1]), action
            assert len(got.base) == len(got.transversals)
            for i, (beta, transversal) in enumerate(zip(got.base, got.transversals)):
                for point, u in transversal.items():
                    assert u[beta] == point, action
                    assert all(u[x] == x for x in got.base[:i]), action


def _pgl_action(d):
    """PGL(d, 3) on the points of PG(d-1, 3), generated by the transvections
    I+E(i,i+1) and I+E(d,1), the coordinate cycle and diag(-1, 1, ..., 1)."""
    def matrix(entry):
        return tuple(tuple(entry(i, j) for j in range(d)) for i in range(d))

    matrices = [matrix(lambda i, j, k=k: int(i == j or (i, j) == (k, (k + 1) % d))) for k in range(d)]
    matrices.append(matrix(lambda i, j: int((i + 1) % d == j)))
    matrices.append(matrix(lambda i, j: (2 if i == 0 else 1) * (i == j)))
    return induce(matrices, projective_points(d, 3), 3)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_pgl_order_on_projective_points(d):
    """|PGL(d, 3)| = |GL(d, 3)| / 2.  At d = 5 (121 points) the chain that
    kept every Schreier generator took 73.9 s."""
    assert group_order(_pgl_action(d)) == math.prod(3**d - 3**i for i in range(d)) // 2


def test_generators_and_random_products_sift(reflection_actions):
    """Every generator, and 100 seeded random products of generators, sift
    to the identity through the chain of the group they generate."""
    rng = random.Random(4040)
    actions = [*reflection_actions.values(), _pgl_action(3), _pgl_action(4)]
    actions += [_random_action(rng, n) for n in range(13) for _ in range(3)]
    for action in actions:
        chain, gens = stabilizer_chain(action), action.generators
        assert all(sifts(chain, g) for g in gens), action
        for _ in range(100 if gens else 0):
            g = identity_perm(action.degree)
            for _ in range(rng.randint(1, 12)):
                g = reference_compose(g, rng.choice(gens))
            assert sifts(chain, g), action


@pytest.mark.parametrize("n", range(5, 10))
def test_transposition_outside_alternating_group(n):
    """The 3-cycles (0 1 k) generate A_n.  The transposition (0 1) does not
    sift through its chain, and adding it doubles the order."""
    gens = []
    for k in range(2, n):
        g = list(range(n))
        g[0], g[1], g[k] = 1, k, 0
        gens.append(tuple(g))
    swap = (1, 0) + tuple(range(2, n))
    chain = stabilizer_chain(PermutationAction(n, tuple(gens)))
    assert chain.order == math.factorial(n) // 2
    assert not sifts(chain, swap)
    assert group_order(PermutationAction(n, (*gens, swap))) == math.factorial(n)


def _dihedral(n):
    return PermutationAction(n, (
        tuple((i + 1) % n for i in range(n)),
        tuple(-i % n for i in range(n)),
    ))


def _wreath_s2_sk(k):
    """S2 wr Sk on the pairs {2i, 2i+1}."""
    n = 2 * k
    swap = tuple([1, 0] + list(range(2, n)))
    shift = tuple((x + 2) % n for x in range(n))
    trans = tuple([2, 3, 0, 1] + list(range(4, n))) if k > 1 else identity_perm(n)
    return PermutationAction(n, (swap, shift, trans))


def _union(a, b):
    """a on 0..a.degree-1 beside b on the rest, generators paired up."""
    n = a.degree + b.degree
    gens = []
    for g, h in itertools.zip_longest(a.generators, b.generators):
        g = g or identity_perm(a.degree)
        h = h or identity_perm(b.degree)
        gens.append(g + tuple(a.degree + y for y in h))
    return PermutationAction(n, tuple(gens))


def _primitivity_cases():
    rng = random.Random(2020)
    cases = [cyclic_action(n) for n in range(1, 17)]
    cases += [_dihedral(n) for n in range(3, 17)]
    cases += [_wreath_s2_sk(k) for k in range(1, 7)]
    cases += [symmetric_action(n) for n in range(2, 9)]
    cases += [
        _union(cyclic_action(2), cyclic_action(3)),
        _union(_dihedral(4), symmetric_action(4)),
        _union(cyclic_action(1), _wreath_s2_sk(3)),
        PermutationAction(5, ()),
        PermutationAction(0, ()),
    ]
    cases += [_random_action(rng, n) for n in range(1, 13) for _ in range(12)]
    return cases


def test_is_primitive_matches_reference():
    imprimitive = intransitive = 0
    for action in _primitivity_cases():
        got = _outcome(is_primitive, action)
        assert got == _outcome(reference_is_primitive, action), action
        imprimitive += got is False
        intransitive += got == "action is not transitive"
        for point in (0, action.degree - 1, action.degree):
            assert _outcome(stabilizer_orbit_sizes, action, point) == _outcome(
                reference_stabilizer_orbit_sizes, action, point
            ), action
    assert imprimitive >= 20 and intransitive >= 20, (imprimitive, intransitive)


def _conjugate(action, perm):
    """The action on relabelled points: point i is renamed perm[i]."""
    gens = []
    for g in action.generators:
        h = [0] * action.degree
        for i, j in enumerate(g):
            h[perm[i]] = perm[j]
        gens.append(tuple(h))
    return PermutationAction(action.degree, tuple(gens))


def _flag_cases(reflection_actions):
    """(point action, design) pairs: the 8 designs under the five-mirror and
    the 81-reflection actions, and small designs relabelled with their
    action conjugated."""
    pg33_class = KIND_POINT_CLASS["higman40"]
    cases = []
    for kind in KINDS:
        cls = KIND_POINT_CLASS.get(kind, pg33_class)
        five = reflection_actions["higman40" if kind == "pg33" else kind]
        full = all_reflections_action(cls)
        for design in (build(kind), complement(build(kind))):
            cases += [(five, design), (full, design)]
    fano = IncidenceStructure(7, tuple(
        tuple(sorted((d + i) % 7 for d in (0, 1, 3))) for i in range(7)
    ))
    fano_group = PermutationAction(7, (
        tuple((x + 1) % 7 for x in range(7)), tuple(2 * x % 7 for x in range(7)),
    ))
    small = [
        (fano_group, fano),
        (PermutationAction(7, fano_group.generators[:1]), fano),
        (PermutationAction(7, ()), fano),
        (fano_group, complement(fano)),
        (PermutationAction(0, ()), IncidenceStructure(0, ())),
        (cyclic_action(3), IncidenceStructure(3, ((), (), ()))),
        (PermutationAction(4, ()), IncidenceStructure(4, ((2, 3), (1, 2)))),
        (PermutationAction(2, ()), IncidenceStructure(2, ((0, 1),))),
        (cyclic_action(4), IncidenceStructure(4, ((0, 2), (1, 3)))),
        (cyclic_action(7), fano),
    ]
    rng = random.Random(3030)
    for action, design in small:
        cases.append((action, design))
        for _ in range(3):
            perm = rng.sample(range(design.v), design.v)
            blocks = list(relabel(design, perm).blocks)
            rng.shuffle(blocks)
            cases.append((_conjugate(action, perm), IncidenceStructure(design.v, tuple(blocks))))
    return cases


def test_flag_transitivity_matches_reference(reflection_actions):
    outcomes = set()
    for action, design in _flag_cases(reflection_actions):
        block_action = _outcome(induced_block_action, action, design)
        assert block_action == _outcome(reference_induced_block_action, action, design)
        if not isinstance(block_action, PermutationAction):
            outcomes.add(block_action)
            continue
        got = _outcome(is_flag_transitive, action, design, block_action)
        assert got == _outcome(reference_is_flag_transitive, action, design, block_action)
        outcomes.add(got)
        # the pairing checks, each with its own message
        gens = block_action.generators
        broken = [
            (PermutationAction(action.degree + 1, tuple(g + (action.degree,) for g in action.generators)), block_action),
            (action, PermutationAction(block_action.degree + 1, tuple(h + (block_action.degree,) for h in gens))),
            (action, PermutationAction(block_action.degree, gens + gens[:1])),
            (action, PermutationAction(block_action.degree, gens[1:] + gens[:1])),
        ]
        for a, b in broken:
            got = _outcome(is_flag_transitive, a, design, b)
            assert got == _outcome(reference_is_flag_transitive, a, design, b)
            outcomes.add(got)
    assert {True, False} <= outcomes
    # block actions given directly, as induced_block_action rejects repeated
    # blocks: each block of twins paired with its copy, and a block sent onto
    # a strict superset of its image
    twins = IncidenceStructure(2, ((0,), (0,), (1,), (1,)))
    swap = PermutationAction(2, ((1, 0),))
    direct = [
        (PermutationAction(2, ((1, 0), (0, 1))), twins, PermutationAction(4, ((2, 3, 0, 1), (1, 0, 3, 2)))),
        (swap, twins, PermutationAction(4, ((2, 3, 0, 1),))),
        (PermutationAction(3, ((0, 1, 2),)), IncidenceStructure(3, ((0,), (0, 1))), swap),
    ]
    got = [_outcome(is_flag_transitive, *case) for case in direct]
    assert got == [_outcome(reference_is_flag_transitive, *case) for case in direct]
    assert got == [True, False, "incompatible generator pair: block image mismatch"]
    assert "a generator does not permute the blocks" in outcomes
    assert "incompatible generator pair: block image mismatch" in outcomes
    assert "generator lists are not paired" in outcomes


_CHAIN_SHA256 = {
    "menon36": "a34ea08985f86511f547f5a284778672fa84a25575a6b36c7bc0f02648e5ea30",
    "minus45": "669012cde9c36bc4ccd8d292785fc67d1a7c7930f122c56734c9582cdffa121b",
    "higman40": "7fd142b638d4e5a303cb694fb6a7a4073bbe0366b51ee1416d7c1e0197a953a3",
}


@pytest.mark.parametrize("kind", sorted(_CHAIN_SHA256))
def test_chain_pinned(kind, reflection_actions):
    """The base, every transversal, the order, the suborbit sizes and the
    primitivity answer of each reflection action, as the sifted chain
    computes them; the suborbit and primitivity parts are as first computed."""
    action = reflection_actions[kind]
    chain = stabilizer_chain(action)
    record = (
        chain.base,
        [sorted(t.items()) for t in chain.transversals],
        chain.order,
        stabilizer_orbit_sizes(action, 0),
        is_primitive(action),
    )
    assert hashlib.sha256(repr(record).encode()).hexdigest() == _CHAIN_SHA256[kind]
