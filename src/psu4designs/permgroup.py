"""Small-degree permutation group engine.

Permutations are image tuples: g maps i to g[i].  Everything here is sized
for the degree-45-and-below actions the design checks need; group_order
guards against misuse at degrees beyond 10^4, where a serious stabilizer
chain implementation would be called for.

Composition runs through ``operator.itemgetter``, which picks all the images
in one C call.  Both group checks are orbit closures: primitivity takes the
orbit of 0 under the stabilizer of 0 and one coset representative per
suborbit (the blocks through 0 are the orbits of 0 under the overgroups of
the stabilizer, Dixon & Mortimer, Permutation Groups, Thm 1.5A), and
flag-transitivity takes one flag's orbit under the generator pairs acting
on the flags coded as integers.
"""

from __future__ import annotations

from operator import itemgetter, mul
from typing import Iterable, NamedTuple, Sequence

from . import geometry
from .designs import IncidenceStructure

__all__ = [
    "Permutation",
    "PermutationAction",
    "StabilizerChain",
    "NotTransitiveError",
    "identity_perm",
    "compose",
    "inverse",
    "induce",
    "stabilizer_chain",
    "group_order",
    "induced_block_action",
    "is_flag_transitive",
    "is_primitive",
    "stabilizer_orbit_sizes",
    "orthogonal_reflection_action",
]

Permutation = tuple[int, ...]


class NotTransitiveError(ValueError):
    """Raised by queries whose precondition is a transitive action."""


def identity_perm(n: int) -> Permutation:
    return tuple(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p first, then q."""
    # itemgetter returns a bare item for one index and cannot take none
    if len(p) < 2:
        return tuple(q[i] for i in p)
    return itemgetter(*p)(q)


def inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _check_perm(p: Sequence[int], n: int) -> None:
    if len(p) != n or sorted(p) != list(range(n)):
        raise ValueError("not a permutation of 0..n-1")


class _PermutationAction(NamedTuple):
    degree: int
    generators: tuple[Permutation, ...]


class PermutationAction(_PermutationAction):
    """Generators acting on {0..degree-1}."""

    __slots__ = ()

    def __new__(cls, degree: int, generators: tuple[Permutation, ...]) -> PermutationAction:
        for g in generators:
            _check_perm(g, degree)
        return super().__new__(cls, degree, generators)


def induce(
    matrices: Iterable[tuple[tuple[int, ...], ...]],
    points: list[tuple[int, ...]],
    p: int,
) -> PermutationAction:
    """The permutations of the point list induced by matrices acting
    projectively (x -> normal form of M x).  Scalar matrices induce the
    identity; a matrix moving any point out of the set is rejected."""
    if not points:
        raise ValueError("empty point list")
    # Every nonzero multiple of a listed normal form names its point, so an
    # image is looked up without normalising it.  Other coordinate tuples
    # are no normal form, so no normalised image ever matched them.
    index = {}
    for i, c in enumerate(points):
        if any(c) and all(0 <= x < p for x in c) and next(filter(None, c)) == 1:
            for s in range(1, p):
                index[tuple(x * s % p for x in c)] = i
    gens = []
    for m in matrices:
        images = []
        for c in points:
            w = tuple(sum(map(mul, row, c)) % p for row in m)
            j = index.get(w)
            if j is None:
                if not any(w):
                    raise ValueError("zero vector has no projective normal form")
                raise ValueError(f"matrix maps ({':'.join(map(str, c))}) outside the point set")
            images.append(j)
        gens.append(tuple(images))
    return PermutationAction(len(points), tuple(gens))


def _closure(gens: Sequence[Permutation], seed: int) -> set[int]:
    """The orbit of seed under the generator list."""
    seen = {seed}
    queue = [seed]
    while queue:
        a = queue.pop()
        for g in gens:
            b = g[a]
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return seen


def _orbits(gens: Sequence[Permutation], n: int) -> list[set[int]]:
    """The orbits on {0..n-1}, ordered by their least points."""
    remaining = set(range(n))
    out = []
    while remaining:
        o = _closure(gens, min(remaining))
        out.append(o)
        remaining -= o
    return out


def _stabilizer(
    gens: Sequence[Permutation], point: int, n: int
) -> tuple[dict[int, Permutation], list[Permutation]]:
    """The transversal of the point's orbit, with t_a[point] = a, and the
    sorted, deduplicated nontrivial Schreier generators t_{g(a)}^-1 t_a g of
    its stabilizer (Seress, Permutation Group Algorithms, 2003, 4.1)."""
    ident = identity_perm(n)
    trans = {point: ident}
    queue = [point]
    for a in queue:  # breadth first: the queue grows as the loop reads it
        ta = trans[a]
        for g in gens:
            b = g[a]
            if b not in trans:
                trans[b] = compose(ta, g)
                queue.append(b)
    if n < 2:
        return trans, []  # the only permutation of degree 0 or 1 is the identity
    inv = {b: inverse(t) for b, t in trans.items()}
    out = set()
    for a, t in trans.items():
        # ta(g) is compose(t_a, g); picking its images out of inv[g[a]]
        # applies t_{g(a)}^-1 after it
        ta = itemgetter(*t)
        for g in gens:
            s = itemgetter(*ta(g))(inv[g[a]])
            if s != ident:
                out.add(s)
    return trans, sorted(out)


class StabilizerChain(NamedTuple):
    """Base points with their transversals, and the group order."""

    base: tuple[int, ...]
    transversals: tuple[dict[int, Permutation], ...]
    order: int


def stabilizer_chain(action: PermutationAction) -> StabilizerChain:
    n = action.degree
    if n > 10_000:
        raise ValueError("degree beyond the desk-scale guard (10^4)")
    ident = identity_perm(n)
    gens = sorted({g for g in action.generators if g != ident})
    base = []
    transversals = []
    order = 1
    while gens:
        # the least point of the first largest orbit; nontrivial generators
        # always move some point, so this orbit has at least two points
        beta = min(max(_orbits(gens, n), key=len))
        trans, gens = _stabilizer(gens, beta, n)
        base.append(beta)
        transversals.append(trans)
        order *= len(trans)
    return StabilizerChain(tuple(base), tuple(transversals), order)


def group_order(action: PermutationAction) -> int:
    """Exact order of the generated group."""
    return stabilizer_chain(action).order


def induced_block_action(
    action: PermutationAction, design: IncidenceStructure
) -> PermutationAction:
    """Permutations of the block list induced by the point generators.

    A generator whose image of some block is not a block is an error, not a
    silent skip.
    """
    if action.degree != design.v:
        raise ValueError("action degree differs from the point count")
    lookup = {block: i for i, block in enumerate(design.blocks)}
    bgens = []
    for g in action.generators:
        images = []
        get = g.__getitem__
        for block in design.blocks:
            j = lookup.get(tuple(sorted(map(get, block))))
            if j is None:
                raise ValueError("a generator does not permute the blocks")
            images.append(j)
        bgens.append(tuple(images))
    return PermutationAction(len(design.blocks), tuple(bgens))


def is_flag_transitive(
    action: PermutationAction,
    design: IncidenceStructure,
    block_action: PermutationAction,
) -> bool:
    """True iff one flag's orbit under the paired generators covers all
    flags.  A pair (g, h) permutes the flags exactly when g maps each block
    b onto block h(b), so a pair sending some flag to a non-flag is rejected.
    """
    blocks = design.blocks
    if action.degree != design.v:
        raise ValueError("point action degree differs from the point count")
    if block_action.degree != len(blocks):
        raise ValueError("block action degree differs from the block count")
    if len(action.generators) != len(block_action.generators):
        raise ValueError("generator lists are not paired")
    # The flag (x, b) is coded as x * nb + b and indexed in block order.
    nb = len(blocks)
    flags = [(x, b) for b, block in enumerate(blocks) for x in block]
    index = {x * nb + b: i for i, (x, b) in enumerate(flags)}
    flag_gens = []
    for g, h in zip(action.generators, block_action.generators):
        try:
            flag_gens.append(tuple([index[g[x] * nb + h[b]] for x, b in flags]))
        except KeyError:
            raise ValueError("incompatible generator pair: block image mismatch") from None
    return bool(flags) and len(_closure(flag_gens, 0)) == len(flags)


def is_primitive(action: PermutationAction) -> bool:
    """True iff the (transitive) action preserves no nontrivial partition,
    that is, iff for one beta per nontrivial suborbit of G_0 the orbit of 0
    under <G_0, t_beta> is the whole set.

    Raises NotTransitiveError on intransitive input.
    """
    n = action.degree
    if not n:
        raise ValueError("seed out of range")  # degree 0 has no point 0
    trans, stab = _stabilizer(action.generators, 0, n)
    if len(trans) != n:
        raise NotTransitiveError("action is not transitive")
    # The blocks through 0 are the orbits H(0) of the groups G_0 <= H <= G
    # (Dixon & Mortimer, Thm 1.5A).  Every element taking 0 to beta lies in
    # t_beta G_0, so the least block through {0, beta} is the orbit of 0
    # under <G_0, t_beta>.  An h in G_0 maps it onto the least block through
    # {0, h beta}, so one beta per suborbit decides; the first is {0}.
    return all(
        len(_closure(stab + [trans[min(o)]], 0)) == n for o in _orbits(stab, n)[1:]
    )


def stabilizer_orbit_sizes(action: PermutationAction, point: int) -> list[int]:
    """Sorted orbit sizes of the stabilizer of the point (Schreier
    generators); their count is the permutation rank."""
    n = action.degree
    if not 0 <= point < n:
        raise ValueError("point out of range")
    trans, stab = _stabilizer(action.generators, point, n)
    if len(trans) != n:
        raise NotTransitiveError("action is not transitive")
    return sorted(map(len, _orbits(stab, n)))


# The lexicographically first generating 5-subset of the 81 mirrors; greedy
# needs 8.  Four never do: they fix a nonzero vector; the group fixes no point.
_MIRRORS = ((0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0), (0, 1, 0, 1, 0), (1, 0, 1, 1, 1))


def orthogonal_reflection_action(point_class: str) -> PermutationAction:
    """The reflection group of the dim-5 orthogonal F_3 space, PSU4(2):2 of
    order 51840, on one point class (isotropic, square-type or nonsquare-type).
    The reflections along the five _MIRRORS are among those along all 81
    anisotropic points and already reach that order, so they generate it all.
    """
    universe = geometry.class_points(point_class)
    space = geometry.design_space()
    matrices = [geometry.reflection(space, v) for v in _MIRRORS]
    return induce(matrices, universe, 3)
