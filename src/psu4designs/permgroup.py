"""Small-degree permutation group engine.

Permutations are image tuples: g maps i to g[i].  Everything here is sized
for the degree-45-and-below actions the design checks need; group_order
guards against misuse at degrees beyond 10^4, where a serious stabilizer
chain implementation would be called for.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from . import geometry
from .designs import IncidenceStructure, flags

__all__ = [
    "Permutation",
    "PermutationAction",
    "StabilizerChain",
    "NotTransitiveError",
    "identity_perm",
    "compose",
    "inverse",
    "induce",
    "orbit",
    "orbits",
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
    return tuple(q[i] for i in p)


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
    points: list[geometry.ProjectivePoint],
    p: int,
) -> PermutationAction:
    """The permutations of the point list induced by matrices acting
    projectively (x -> normal form of M x).  Scalar matrices induce the
    identity; a matrix moving any point out of the set is rejected."""
    if not points:
        raise ValueError("empty point list")
    index = {pt.coords: i for i, pt in enumerate(points)}
    dim = len(points[0].coords)
    gens = []
    for m in matrices:
        images = []
        for pt in points:
            w = tuple(
                sum(m[i][j] * pt.coords[j] for j in range(dim)) % p for i in range(dim)
            )
            nf = geometry.ProjectivePoint.from_vector(w, p).coords
            j = index.get(nf)
            if j is None:
                raise ValueError(f"matrix maps {pt} outside the point set")
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


def orbit(action: PermutationAction, seed: int) -> set[int]:
    """The orbit of seed under the action."""
    if not 0 <= seed < action.degree:
        raise ValueError("seed out of range")
    return _closure(action.generators, seed)


def orbits(action: PermutationAction) -> list[set[int]]:
    return _orbits(action.generators, action.degree)


def _orbit_transversal(
    gens: Sequence[Permutation], beta: int, n: int
) -> dict[int, Permutation]:
    """Orbit of beta with coset representatives t_a satisfying t_a[beta] = a."""
    transversal = {beta: identity_perm(n)}
    queue = [beta]
    while queue:
        a = queue.pop(0)
        ta = transversal[a]
        for g in gens:
            b = g[a]
            if b not in transversal:
                transversal[b] = compose(ta, g)
                queue.append(b)
    return transversal


def _schreier_generators(
    gens: Sequence[Permutation], transversal: dict[int, Permutation]
) -> list[Permutation]:
    """Deduplicated nontrivial Schreier generators of the point stabilizer."""
    inv = {b: inverse(t) for b, t in transversal.items()}
    ident = identity_perm(len(next(iter(transversal.values()))))
    out = set()
    for a in sorted(transversal):
        ta = transversal[a]
        for g in gens:
            s = compose(compose(ta, g), inv[g[a]])
            if s != ident:
                out.add(s)
    return sorted(out)


class StabilizerChain(NamedTuple):
    """Base points with their transversals, and the group order."""

    base: tuple[int, ...]
    transversals: tuple[dict[int, Permutation], ...]
    order: int


def stabilizer_chain(action: PermutationAction) -> StabilizerChain:
    n = action.degree
    if n > 10_000:
        raise ValueError("degree beyond the desk-scale guard (10^4)")
    gens = sorted({g for g in action.generators if g != identity_perm(n)})
    base = []
    transversals = []
    order = 1
    while gens:
        # the least point of the first largest orbit; nontrivial generators
        # always move some point, so this orbit has at least two points
        beta = min(max(_orbits(gens, n), key=len))
        trans = _orbit_transversal(gens, beta, n)
        base.append(beta)
        transversals.append(trans)
        order *= len(trans)
        gens = _schreier_generators(gens, trans)
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
        for block in design.blocks:
            img = tuple(sorted(g[i] for i in block))
            j = lookup.get(img)
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
    """True iff one flag's orbit under the simultaneous action covers all
    flags.  The generator pairing is checked for compatibility first."""
    if action.degree != design.v:
        raise ValueError("point action degree differs from the point count")
    if block_action.degree != len(design.blocks):
        raise ValueError("block action degree differs from the block count")
    if len(action.generators) != len(block_action.generators):
        raise ValueError("generator lists are not paired")
    for g, h in zip(action.generators, block_action.generators):
        for b, block in enumerate(design.blocks):
            if tuple(sorted(g[i] for i in block)) != design.blocks[h[b]]:
                raise ValueError("incompatible generator pair: block image mismatch")
    all_flags = flags(design)
    if not all_flags:
        return False
    start = all_flags[0]
    seen = {start}
    queue = [start]
    pairs = list(zip(action.generators, block_action.generators))
    while queue:
        pt, blk = queue.pop()
        for g, h in pairs:
            nxt = (g[pt], h[blk])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == len(all_flags)


def _closure_is_trivial(gens: Sequence[Permutation], n: int, beta: int) -> bool:
    """True iff the finest congruence merging {0, beta} is the full set."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    classes = n
    queue = [(0, beta)]
    ra, rb = find(0), find(beta)
    if ra != rb:
        parent[ra] = rb
        classes -= 1
    while queue:
        x, y = queue.pop()
        for g in gens:
            a, b = find(g[x]), find(g[y])
            if a != b:
                parent[a] = b
                classes -= 1
                queue.append((g[x], g[y]))
    return classes == 1


def is_primitive(action: PermutationAction) -> bool:
    """True iff the (transitive) action preserves no nontrivial partition.

    Raises NotTransitiveError on intransitive input.
    """
    n = action.degree
    if len(orbit(action, 0)) != n:
        raise NotTransitiveError("action is not transitive")
    if n <= 2:
        return True
    return all(
        _closure_is_trivial(action.generators, n, beta) for beta in range(1, n)
    )


def stabilizer_orbit_sizes(action: PermutationAction, point: int) -> list[int]:
    """Sorted orbit sizes of the stabilizer of the point (Schreier
    generators); their count is the permutation rank."""
    n = action.degree
    if not 0 <= point < n:
        raise ValueError("point out of range")
    if len(orbit(action, 0)) != n:
        raise NotTransitiveError("action is not transitive")
    trans = _orbit_transversal(action.generators, point, n)
    sgens = _schreier_generators(action.generators, trans)
    return sorted(len(o) for o in _orbits(sgens, n))


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
    if not universe:
        raise ValueError(f"unknown point class {point_class!r}")
    space = geometry.design_space()
    matrices = [geometry.reflection(space, v) for v in _MIRRORS]
    return induce(matrices, universe, 3)
