import random

import pytest

from psu4designs import geometry
from psu4designs.designs import build, complement, flags
from psu4designs.geometry import SQUARE_TYPE, classify_point, design_space, projective_points, reflection
from psu4designs.permgroup import (
    NotTransitiveError,
    PermutationAction,
    compose,
    group_order,
    identity_perm,
    induce,
    induced_block_action,
    is_flag_transitive,
    is_primitive,
    orbit,
    orbits,
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


def test_transitivity_of_reflection_actions(reflection_actions):
    for action in reflection_actions.values():
        assert len(orbit(action, 0)) == action.degree


def test_primitivity():
    for n in (3, 5, 7):
        assert is_primitive(cyclic_action(n))  # prime degree
    assert not is_primitive(cyclic_action(4))  # blocks {0,2},{1,3}
    with pytest.raises(NotTransitiveError):
        is_primitive(PermutationAction(5, ((1, 2, 0, 3, 4),)))


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
