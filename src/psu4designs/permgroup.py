"""Small-degree permutation group engine.

Permutations are image tuples: g maps i to g[i], and composition picks all
the images in one ``operator.itemgetter`` call.  Stabilizer chains come from
deterministic Schreier-Sims with sifting: a Schreier generator joins the
strong generators only when it does not sift to the identity.  Primitivity
and flag-transitivity are orbit closures.  The chain, primitivity and
suborbit queries guard against degrees beyond 10^4.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import itemgetter, mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import geometry
from .exactmath import is_prime

if TYPE_CHECKING:
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
    identity; a matrix moving any point out of the set is rejected, and so
    is a modulus that is not prime."""
    if not points:
        raise ValueError("empty point list")
    if not is_prime(p):
        raise ValueError(f"need a prime modulus, got {p}")
    # Every nonzero multiple of a listed normal form names its point, so an
    # image is looked up without normalising it.  Other coordinate tuples
    # are no normal form, so no normalised image ever matched them.
    index = {}
    for i, c in enumerate(points):
        if any(c) and all(0 <= x < p for x in c) and next(filter(None, c)) == 1:
            for s in range(1, p):
                index[tuple(x * s % p for x in c)] = i
    # The images of all points come from the packed dot products with the
    # rows of the matrix; the first point without one is named from its
    # own products, and an empty matrix maps every point to ()
    dots = geometry._dot_products(points, p)
    gens = []
    for m in matrices:
        images = [*map(index.get, zip(*map(dots, m)))] if m else [None]
        if None in images:
            c = points[images.index(None)]
            if not any(sum(map(mul, row, c)) % p for row in m):
                raise ValueError("zero vector has no projective normal form")
            raise ValueError(f"matrix maps ({':'.join(map(str, c))}) outside the point set")
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


def _grow(gens: list[tuple[Permutation, Permutation]], trans: dict[int, Permutation],
          inv: dict[int, Permutation], checked: set[tuple[int, int]]) -> None:
    """Extend the transversal (t_a maps the base point to a) and its inverses
    by the (generator, inverse) pairs, breadth first from the points already
    in it.  The pair (a, k) that adds b is checked: t_a gens[k] t_b^-1 = 1."""
    queue = list(trans)
    for a in queue:  # the queue grows as the loop reads it
        ta, ia = trans[a], inv[a]
        for k, (g, g_inv) in enumerate(gens):
            b = g[a]
            if b not in trans:
                trans[b], inv[b] = compose(ta, g), compose(g_inv, ia)
                checked.add((a, k))
                queue.append(b)


def _suborbits(
    action: PermutationAction, point: int
) -> tuple[dict[int, Permutation], list[Permutation], list[set[int]]]:
    """For a transitive action of degree at most 10^4: the transversal, with
    t_a[point] = a, the sorted, deduplicated nontrivial Schreier generators
    t_{g(a)}^-1 t_a g of the point's stabilizer (Seress, Permutation Group
    Algorithms, 2003, 4.1) and its orbits, ordered by their least points.

    Raises NotTransitiveError on intransitive input."""
    n, gens = action
    if n > 10_000:
        raise ValueError("degree beyond the desk-scale guard (10^4)")
    if len(_closure(gens, point)) != n:
        raise NotTransitiveError("action is not transitive")
    ident = identity_perm(n)
    trans, inv = {point: ident}, {point: ident}
    _grow([(g, inverse(g)) for g in gens], trans, inv, set())
    out = set()
    if n > 1:  # the only permutation of degree 0 or 1 is the identity
        for a, t in trans.items():
            # ta(g) is compose(t_a, g); picking its images out of inv[g[a]]
            # applies t_{g(a)}^-1 after it
            ta = itemgetter(*t)
            for g in gens:
                s = itemgetter(*ta(g))(inv[g[a]])
                if s != ident:
                    out.add(s)
    stab = sorted(out)
    return trans, stab, _orbits(stab, n)


class StabilizerChain(NamedTuple):
    """Base points with their transversals, and the group order."""

    base: tuple[int, ...]
    transversals: tuple[dict[int, Permutation], ...]
    order: int


def stabilizer_chain(action: PermutationAction) -> StabilizerChain:
    """Deterministic Schreier-Sims with sifting (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, 2005, 4.4).  From the deepest
    level up, each Schreier generator t_a s t_{s(a)}^-1 is sifted through
    the levels below; a residue h != 1 that stops at level j joins the
    levels down to j, past the last one at the least point h moves, and the
    work resumes at level j."""
    n = action.degree
    if n > 10_000:
        raise ValueError("degree beyond the desk-scale guard (10^4)")
    ident = identity_perm(n)
    gens = sorted({g for g in action.generators if g != ident})
    # per level: base point, strong generators with inverses (append-only, so
    # a checked (point, generator index) pair keeps its meaning), transversal
    # and its inverses, checked pairs
    base, strong, trans, inv, checked = [], [], [], [], []

    def join(hs: list[Permutation], levels: range, point: int) -> None:
        if levels.stop > len(base):  # a new level at the point
            base.append(point)
            strong.append([])
            trans.append({point: ident})
            inv.append({point: ident})
            checked.append(set())
        pairs = [(h, inverse(h)) for h in hs]
        for j in levels:
            strong[j] += pairs
            _grow(strong[j], trans[j], inv[j], checked[j])

    if gens:
        # the least point of the first largest orbit; nontrivial generators
        # always move some point, so this orbit has at least two points
        join(gens, range(1), min(max(_orbits(gens, n), key=len)))
    i = len(base) - 1
    while i >= 0:
        for (a, t), (k, (s, _)) in product(trans[i].items(), enumerate(strong[i])):
            if (a, k) in checked[i]:
                continue
            checked[i].add((a, k))
            # strip t_a s level by level until it equals its transversal
            # element (it sifts) or its base image leaves the orbit
            h, j = compose(t, s), i
            while j < len(base) and (b := h[base[j]]) in trans[j] and h != trans[j][b]:
                h, j = compose(h, inv[j][b]), j + 1
            if j == len(base) or b not in trans[j]:
                join([h], range(i + 1, j + 1), next(x for x, y in enumerate(h) if x != y))
                i = j
                break
        else:
            i -= 1
    return StabilizerChain(tuple(base), tuple(trans), prod(map(len, trans)))


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
    trans, stab, suborbits = _suborbits(action, 0)
    # The blocks through 0 are the orbits H(0) of the groups G_0 <= H <= G
    # (Dixon & Mortimer, Thm 1.5A).  Every element taking 0 to beta lies in
    # t_beta G_0, so the least block through {0, beta} is the orbit of 0
    # under <G_0, t_beta>.  An h in G_0 maps it onto the least block through
    # {0, h beta}, so one beta per suborbit decides; the first is {0}.
    return all(len(_closure(stab + [trans[min(o)]], 0)) == n for o in suborbits[1:])


def stabilizer_orbit_sizes(action: PermutationAction, point: int) -> list[int]:
    """Sorted orbit sizes of the stabilizer of the point (Schreier
    generators); their count is the permutation rank."""
    if not 0 <= point < action.degree:
        raise ValueError("point out of range")
    return sorted(map(len, _suborbits(action, point)[2]))


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
