"""Independent oracles for the sieve's fast paths, and test utilities.

``flags``, ``relabel``, ``prime_powers_up_to``, ``orbits`` and ``orbit``
are test utilities: no program path calls them, so they live here rather
than in the package.  ``flags`` lists a design's incident (point, block)
pairs, ``relabel`` renames its points, ``prime_powers_up_to`` enumerates the
q a test sweeps, ``orbits`` splits a permutation action into its orbits, and
``orbit`` is one point's orbit.

``brute_force_candidates`` deliberately does not touch the package's
k-search: it walks every k in 3..min(v-2, cap) directly and applies the
same constraint set, so agreement with ``feasible_candidates`` checks the
search path, not the constraints alone.

``divisor_scan`` is the k-search the residue search replaced: it lists
every divisor of the k-bound and filters them by (v-1) | k(k-1).  It
returns the candidate traces and the per-stage rejection counts too, so
agreement with ``sieve._k_search`` checks everything past stage 0.

``reference_k_search`` is ``sieve._k_search`` as it factored the whole
k-bound, before it factored only gcd(k-bound, v-1), with one modular
inverse per residue, before the residues became subset sums of CRT
idempotents; agreement checks the full result, the stage-0 (NO_K_DIVISOR)
count included.  It returns ``FeasibilityResult``, the record ``_k_search``
returned before it returned the same three fields as a plain tuple.

``reference_scan_instance`` is ``sieve._scan_instance`` as it read v, the
k-bound and the cube test |X| <= |Out|^2 * |H0|^3 from separate catalog
calls, before it took them from one |X| and one |H0| per case.

``exhaustive_cap`` tries a fixed 64 exponents for every prime, so agreement
with ``sieve._cap`` checks the derived exponent ceiling that stops it early.
``reference_cap`` is ``sieve._cap`` as it ran ``holds`` at every exponent
below 4, before it stopped at the first q = p^a above ``_Q_CEILING * a^3``,
where the proof at ``sieve._Q_CEILING`` says every cut-off fails; tables
built with it check that stop.

``all_reflections_action`` is the reflection action generated by all 81
mirrors, as ``permgroup.orthogonal_reflection_action`` built it before it
used five, so agreement checks that the five generate the same group.

``brute_force_isomorphic`` tries every point bijection, so it answers
yes or no for the iso search on structures small enough (v <= 6).

``reference_pair_profiles`` and ``ReferenceIsoSearch`` are the pair
profiles and the refinement as ``designs`` computed them from point masks
and (edge id, colour) tuples, before packed triple-count rows and integer
codes; ``reference_find_isomorphism`` runs the search on them, so
agreement checks the yes/no answer.  Its ids rank in sorted order; the live
search's are labels in order of first appearance, so its witness, though
valid, may be another one.
``ReferenceIsoSearch`` inherits nothing from ``designs._IsoSearch``: its
renumbering, individualisation, branching and witness extraction are
copies of ``_IsoSearch``'s as they stood when the pair profiles were first
counted per value, so a change to the live search cannot change the oracle.

``CounterRefineIsoSearch`` is the search as it refined before colour
classes were keyed by sorted code tuples: it counts every point's
(code, count) signature and hashes nested profile tuples to rank the edge
ids.  Like the live ``_refine``, its ``_refine`` takes raw signatures and
opens with its own copy of the renumbering step that ``_IsoSearch`` once
ran as a separate ``_renumber``, so the inherited ``search`` can hand it
the anchor signatures.  ``first_appearance`` relabels a pair of
colourings so that the live ids and these ranked ones compare as partitions.

``RowKeysIsoSearch`` is the search as it built each edge-round key row by
row, one tuple per point from that point's own layout, before each
design's rows were laid out as per-shape columns; everything else is
inherited, so agreement with ``_IsoSearch`` checks the colour ids
themselves, not only the partitions.

``reference_anchor_signature`` is the anchor signature as
``_IsoSearch.search`` built it before ``designs._anchor_signature``: a
nested tuple (colour, anchor flag, tuple of triple counts) per point, from
a generator over the anchors run for every point.  ``_refine`` must give
the same colour ids on it as on the flat tuples.

``reference_complement`` is ``designs.complement`` as it sorted the set
difference of each block from the full point set and passed the result
through ``IncidenceStructure``'s block checks, before each block was read
off the points in one pass that skips them.

``reference_out_of_range`` and ``reference_unsorted`` are the per-block
checks that ``IncidenceStructure`` and ``parse_design`` ran as generator
predicates before they took ``min``/``max`` and ``all(map(lt, ...))``.

``reference_build`` and ``reference_induce`` are ``designs.build`` and
``permgroup.induce`` as they read the bilinear form and normalised each
image, before Gram-row dot products and the table of point multiples.
``reference_pg_hyperplanes`` is ``geometry.pg_hyperplanes`` as it took one
dot product per (hyperplane, point) pair, before the packed columns of
``geometry._dot_products``.

``reference_stabilizer_chain``, ``reference_is_primitive``,
``reference_stabilizer_orbit_sizes``, ``reference_induced_block_action`` and
``reference_is_flag_transitive`` are the group checks as ``permgroup`` ran
them before composing through ``operator.itemgetter``: the chain builds
every coset representative and Schreier generator with a generator
expression, primitivity closes a block for every point but 0, and the flag
search runs on (point, block) tuples from ``flags`` after re-sorting
every block image under every generator.  ``_closure_is_trivial`` is the
union-find that closed each of those blocks in ``permgroup`` too, before
primitivity became one orbit of 0 per suborbit under the stabilizer of 0
and a coset representative; agreement checks that orbit test against the
finest congruence through every {0, beta}.
The reference chain keeps every deduplicated Schreier generator at each
level, as ``stabilizer_chain`` did before it sifted them.  ``sifts``
strips a permutation through a chain's stored transversals, inverting each
one itself rather than through ``permgroup``; through a complete chain,
exactly the elements of the group sift to the identity.
``reference_projective_points`` normalises every nonzero vector and sorts
the set of normal forms.  Both it and ``reference_induce`` take normal
forms with ``normalize``, which scales a vector so that its first nonzero
coordinate is 1.

``reference_verify_symmetric`` is ``designs.verify_symmetric`` as it
checked every block pair after every point pair, with the per-block masks
``IncidenceStructure.block_masks`` built, before the block-pair pass was
dropped as implied by the checks before it.  ``ReferenceDesignParams`` is
``DesignParams`` as it checked lambda*v < k^2 and the square condition on
4*lambda*(v-1)+1 after nontriviality and the counting identity, before
those two were dropped as implied by them.

``reference_su_level_order``, ``reference_applies``,
``reference_subdegree_divisors``, ``reference_subfield_decompositions`` and
``reference_cases_for`` are the catalog as it read each line from a 16-way
``if line ==`` chain, before each line became one row of a table; the
cases come back as (line, parabolic, subfield) tuples.
"""

import math
from collections import Counter
from itertools import permutations, product
from math import gcd, isqrt
from operator import add, mul
from typing import NamedTuple, Optional, Sequence

from psu4designs import catalog, geometry
from psu4designs.catalog import (
    FIXED_GROUP_LINES, PARABOLIC_LINES, SubgroupCase, out_order, socle_order,
)
from psu4designs.designs import (
    KIND_POINT_CLASS,
    KINDS,
    IncidenceStructure,
    VerificationFailure,
    _IsoSearch,
    is_isomorphism,
)
from psu4designs.exactmath import (
    DesignParams, PrimePower, _DesignParams, factorize, is_perfect_square, primes_up_to,
)
from psu4designs.permgroup import (
    NotTransitiveError,
    Permutation,
    PermutationAction,
    StabilizerChain,
    _closure,
    _orbits,
    identity_perm,
    induce,
    inverse,
)
from psu4designs.sieve import (
    CUBE_PREFILTER,
    ELIMINATED,
    KNOWN_DESIGN_PARAMS,
    NO_K_DIVISOR,
    SUBDEG_FAIL,
    SURVIVOR,
    TITS_FAIL,
    UNRESOLVED,
    CaseOutcome,
)
from psu4designs.sieve import _Q_CEILING, _k_search


def flags(design: IncidenceStructure) -> list[tuple[int, int]]:
    """All incident (point, block) pairs, lexicographic."""
    out = []
    for i, m in enumerate(design.point_masks()):
        b = 0
        while m:
            if m & 1:
                out.append((i, b))
            m >>= 1
            b += 1
    return out


def relabel(design: IncidenceStructure, perm: list[int]) -> IncidenceStructure:
    """Rename point i to perm[i], keeping block order."""
    blocks = tuple(tuple(sorted(perm[i] for i in b)) for b in design.blocks)
    return IncidenceStructure(design.v, blocks)


def reference_complement(design: IncidenceStructure) -> IncidenceStructure:
    full = set(range(design.v))
    blocks = tuple(tuple(sorted(full - set(b))) for b in design.blocks)
    return IncidenceStructure(design.v, blocks)


def prime_powers_up_to(q_max: int) -> list[PrimePower]:
    """All prime powers p^a <= q_max with a >= 1, sorted by value."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    out = []
    for p in primes_up_to(q_max):
        q, a = p, 1
        while q <= q_max:
            out.append(PrimePower(q, p, a))
            q *= p
            a += 1
    out.sort()
    return out


def orbits(action: PermutationAction) -> list[set[int]]:
    return _orbits(action.generators, action.degree)


def orbit(action: PermutationAction, seed: int) -> set[int]:
    """The orbit of seed under the action."""
    if not 0 <= seed < action.degree:
        raise ValueError("seed out of range")
    return _closure(action.generators, seed)


# stage codes for (ii)-(iii) and (iv): the reference tests them, the sieve does not
LAMBDA_BOUND_FAIL = "LAMBDA_BOUND_FAIL"
SQUARE_FAIL = "SQUARE_FAIL"


def brute_force_candidates(v, k_bound, subdeg, p, parabolic, k_cap=10**6):
    if not parabolic and gcd(p, v - 1) != 1:
        return []
    effective = [gcd(d, v - 1) if parabolic else d for d in subdeg]
    vm1 = v - 1
    out = []
    for k in range(3, min(v - 2, k_cap) + 1):
        kk = k * (k - 1)
        if kk % vm1:
            continue
        if k_bound % k:
            continue
        lam = kk // vm1
        if lam >= k or lam * v >= k * k:
            continue
        disc = 4 * lam * vm1 + 1
        r = isqrt(disc)
        if r * r != disc:
            continue
        if any((lam * d) % k for d in effective):
            continue
        out.append((v, k, lam))
    return out


def exhaustive_cap(holds, p):
    """Largest a <= 64 with holds(p^a, a); 0 when even a=1 fails."""
    best = 0
    for a in range(1, 65):
        if holds(p**a, a):
            best = a
    return best


def reference_cap(holds, p: int) -> int:
    """Largest a with holds(p^a, a); 0 when even a=1 fails."""
    best = 0
    a = 1
    while a < 4 or p**a <= _Q_CEILING * a**3:
        if holds(p**a, a):
            best = a
        a += 1
    return best


def divisor_scan(v, k_bound, subdeg, p, parabolic):
    """((v, k, lambda), trace) candidates and rejection counts by reason."""
    if not parabolic and gcd(p, v - 1) != 1:
        return [], {}
    vm1 = v - 1
    effective = [gcd(d, vm1) if parabolic else d for d in subdeg]
    divs = [1]
    for r, e in factorize(k_bound):
        powers = [r**i for i in range(e + 1)]
        divs = [d * pk for d in divs for pk in powers]
    divs.sort()
    rejections = Counter()
    out = []
    for k in divs:
        if k <= 2 or k >= vm1:
            continue
        kk = k * (k - 1)
        if kk % vm1:
            rejections["NO_K_DIVISOR"] += 1
            continue
        lam = kk // vm1
        if lam >= k or lam * v >= k * k:
            rejections["LAMBDA_BOUND_FAIL"] += 1
            continue
        disc = 4 * lam * vm1 + 1
        root = isqrt(disc)
        if root * root != disc:
            rejections["SQUARE_FAIL"] += 1
            continue
        if any((lam * d) % k for d in effective):
            rejections["SUBDEG_FAIL"] += 1
            continue
        checks = [
            {"bound": d_raw, "applied": d_eff, "multiplier": lam * d_eff // k}
            for d_raw, d_eff in zip(subdeg, effective)
        ]
        out.append(((v, k, lam), {"square_root": root, "subdegree_checks": checks}))
    return out, dict(rejections)


class FeasibilityResult(NamedTuple):
    candidates: list[tuple[DesignParams, dict]]
    rejections: dict[str, int]
    tits_violated: bool = False


def reference_k_search(
    v: int, k_bound: int, subdeg: list[int], p: int, parabolic: bool
) -> FeasibilityResult:
    if v < 4:
        raise ValueError("v must be >= 4")
    if k_bound < 1:
        raise ValueError("k_bound must be >= 1")
    if not parabolic and math.gcd(p, v - 1) != 1:
        return FeasibilityResult([], {}, tits_violated=True)
    vm1 = v - 1
    effective = [math.gcd(d, vm1) if parabolic else d for d in subdeg]
    rejections: Counter[str] = Counter()
    candidates: list[tuple[DesignParams, dict]] = []
    # gcd(k, k-1) = 1, so each prime power r^e exactly dividing v-1 divides k
    # or k-1, and k only if r^e | k_bound.  By CRT, k mod v-1 is a*(a^-1 mod
    # (v-1)/a) for a product a of such r^e; as 2 < k < v-1, each residue is at
    # most one k.  Only k_bound is factored, never v-1.
    parts = [1]
    for r, e in factorize(k_bound):
        g = math.gcd(vm1, r**e)
        if g > 1 and (vm1 // g) % r:
            parts += [a * g for a in parts]
    for k in sorted(a * pow(a, -1, vm1 // a) % vm1 for a in parts):
        if k <= 2:
            continue
        if k_bound % k:
            rejections[NO_K_DIVISOR] += 1
            continue
        lam = k * (k - 1) // vm1
        if lam >= k or lam * v >= k * k:
            rejections[LAMBDA_BOUND_FAIL] += 1
            continue
        disc = 4 * lam * vm1 + 1
        root = isqrt(disc)
        if root * root != disc:
            rejections[SQUARE_FAIL] += 1
            continue
        checks = []
        ok = True
        for d_raw, d_eff in zip(subdeg, effective):
            if (lam * d_eff) % k:
                ok = False
                break
            checks.append(
                {"bound": d_raw, "applied": d_eff, "multiplier": lam * d_eff // k}
            )
        if not ok:
            rejections[SUBDEG_FAIL] += 1
            continue
        trace = {"square_root": root, "subdegree_checks": checks}
        candidates.append((DesignParams(v, k, lam), trace))
    return FeasibilityResult(candidates, dict(rejections))


# The stage depth of the per-k rejection codes, as the sieve kept it before
# naming an eliminated case by a rule: the deepest stage any k reached.
_STAGE = {NO_K_DIVISOR: 0, SUBDEG_FAIL: 1}


def reference_scan_instance(case: SubgroupCase, q: PrimePower) -> CaseOutcome:
    v = case.point_count(q)
    k_bound = case.k_divisor_bound(q)
    h0 = socle_order(q) // v
    if case.line in FIXED_GROUP_LINES and not (
        socle_order(q) <= out_order(q) ** 2 * h0 ** 3
    ):
        candidates, rejections, reason = [], {}, CUBE_PREFILTER
    else:
        candidates, rejections, tits_violated = _k_search(
            v, k_bound, case.subdegree_divisors(q), q.p, case.parabolic
        )
        deepest = max(rejections, key=_STAGE.get, default=NO_K_DIVISOR)
        reason = TITS_FAIL if tits_violated else deepest
    for params, trace in candidates:
        known = q.q == 2 and params.triple() in KNOWN_DESIGN_PARAMS
        trace["classification"] = SURVIVOR if known else UNRESOLVED
    classes = {trace["classification"] for _, trace in candidates}
    status = ELIMINATED
    if classes:
        status = UNRESOLVED if UNRESOLVED in classes else SURVIVOR
        reason = None
    return CaseOutcome(
        case.line, q, v, k_bound, status, reason, candidates, rejections, case.subfield
    )


def all_reflections_action(point_class):
    universe = geometry.class_points(point_class)
    if not universe:
        raise ValueError(f"unknown point class {point_class!r}")
    space = geometry.design_space()
    mirrors = [
        pt
        for pt in geometry.projective_points(5, 3)
        if geometry.classify_point(space, pt) != geometry.ISOTROPIC
    ]
    matrices = [geometry.reflection(space, v) for v in mirrors]
    return induce(matrices, universe, 3)


def reference_pair_profiles(design: IncidenceStructure) -> list[list[tuple]]:
    n = design.v
    masks = design.point_masks()
    prof: list[list[Optional[tuple]]] = [[None] * n for _ in range(n)]
    for x in range(n):
        prof[x][x] = (-1, ())  # diagonal marker, below any real profile
        for y in range(x + 1, n):
            mxy = masks[x] & masks[y]
            hist = Counter(
                (mxy & masks[z]).bit_count() for z in range(n) if z != x and z != y
            )
            key = (mxy.bit_count(), tuple(sorted(hist.items())))
            prof[x][y] = prof[y][x] = key
    return prof


class ReferenceIsoSearch:
    """The search with the reference profiles and refinement, and its own
    copies of renumbering, individualisation, branching and witness
    extraction."""

    def __init__(self, d1: IncidenceStructure, d2: IncidenceStructure) -> None:
        self.n = d1.v
        self.d1 = d1
        self.d2 = d2
        self.masks1 = d1.point_masks()
        self.masks2 = d2.point_masks()
        prof1 = reference_pair_profiles(d1)
        prof2 = reference_pair_profiles(d2)
        keys = {k for row in prof1 for k in row} | {k for row in prof2 for k in row}
        ids = {k: i for i, k in enumerate(sorted(keys))}
        self.ec1 = [[ids[k] for k in row] for row in prof1]
        self.ec2 = [[ids[k] for k in row] for row in prof2]

    def _refine(
        self, col1: list[int], col2: list[int]
    ) -> Optional[tuple[list[int], list[int]]]:
        n = self.n
        while True:
            sig1 = [
                (col1[x], tuple(sorted(Counter(
                    (self.ec1[x][y], col1[y]) for y in range(n) if y != x
                ).items())))
                for x in range(n)
            ]
            sig2 = [
                (col2[x], tuple(sorted(Counter(
                    (self.ec2[x][y], col2[y]) for y in range(n) if y != x
                ).items())))
                for x in range(n)
            ]
            renumbered = self._renumber(sig1, sig2)
            if renumbered is None:
                return None
            new1, new2 = renumbered
            if len(set(new1)) == len(set(col1)):
                return new1, new2
            col1, col2 = new1, new2

    def _renumber(self, sig1: list, sig2: list) -> Optional[tuple[list[int], list[int]]]:
        if sorted(sig1) != sorted(sig2):
            return None
        ids = {s: i for i, s in enumerate(sorted(set(sig1)))}
        return [ids[s] for s in sig1], [ids[s] for s in sig2]

    def _individualize(
        self,
        col1: list[int],
        col2: list[int],
        anchors1: tuple[int, ...],
        anchors2: tuple[int, ...],
        x: int,
        y: int,
    ) -> Optional[tuple[list[int], list[int]]]:
        # anchor-triple refinement: colour every z by its triple counts
        # with (a, x) over all previous anchors a
        n = self.n
        m1, m2 = self.masks1, self.masks2
        mx, my = m1[x], m2[y]
        sig1 = [
            (col1[z], z == x,
             tuple((m1[a] & mx & m1[z]).bit_count() for a in anchors1))
            for z in range(n)
        ]
        sig2 = [
            (col2[z], z == y,
             tuple((m2[b] & my & m2[z]).bit_count() for b in anchors2))
            for z in range(n)
        ]
        renumbered = self._renumber(sig1, sig2)
        if renumbered is None:
            return None
        return self._refine(*renumbered)

    def _extract(self, col1: list[int], col2: list[int]) -> Optional[list[int]]:
        image = {}
        for y in range(self.n):
            image[col2[y]] = y
        perm = [image[c] for c in col1]
        return perm if is_isomorphism(self.d1, self.d2, perm) else None

    def search(
        self,
        col1: list[int],
        col2: list[int],
        anchors1: tuple[int, ...] = (),
        anchors2: tuple[int, ...] = (),
    ) -> Optional[list[int]]:
        counts = Counter(col1)
        split = [c for c in counts if counts[c] > 1]
        if not split:
            return self._extract(col1, col2)
        target = min(split, key=lambda c: (counts[c], c))
        x = col1.index(target)
        for y in range(self.n):
            if col2[y] != target:
                continue
            refined = self._individualize(col1, col2, anchors1, anchors2, x, y)
            if refined is None:
                continue
            found = self.search(
                refined[0], refined[1], anchors1 + (x,), anchors2 + (y,)
            )
            if found is not None:
                return found
        return None


def brute_force_isomorphic(d1, d2):
    """Whether some bijection of the points maps d1's blocks onto d2's."""
    return d1.v == d2.v and any(
        is_isomorphism(d1, d2, list(perm)) for perm in permutations(range(d1.v))
    )


def reference_find_isomorphism(d1, d2):
    """``designs.find_isomorphism`` over ``ReferenceIsoSearch``."""
    n = d1.v
    if n != d2.v or len(d1.blocks) != len(d2.blocks):
        return None
    if sorted(map(len, d1.blocks)) != sorted(map(len, d2.blocks)):
        return None
    searcher = ReferenceIsoSearch(d1, d2)
    start = searcher._refine([0] * n, [0] * n)
    if start is None:
        return None
    return searcher.search(*start)


class CounterRefineIsoSearch(_IsoSearch):
    """The search with the edge codes and refinement that counted a
    (code, count) signature for every point; individualisation, branching
    and witness extraction are inherited."""

    def __init__(self, d1: IncidenceStructure, d2: IncidenceStructure) -> None:
        self.n = d1.v
        self.d1 = d1
        self.d2 = d2
        self.masks1 = d1.point_masks()
        self.masks2 = d2.point_masks()
        prof1 = reference_pair_profiles(d1)
        prof2 = reference_pair_profiles(d2)
        keys = {k for row in prof1 for k in row} | {k for row in prof2 for k in row}
        ids = {k: i for i, k in enumerate(sorted(keys))}
        n = self.n
        self.en1 = [[ids[k] * n for k in row] for row in prof1]
        self.en2 = [[ids[k] * n for k in row] for row in prof2]

    def _renumber(self, sig1: list, sig2: list) -> Optional[tuple[list[int], list[int]]]:
        if sorted(sig1) != sorted(sig2):
            return None
        ids = {s: i for i, s in enumerate(sorted(set(sig1)))}
        return [ids[s] for s in sig1], [ids[s] for s in sig2]

    def _refine(self, sig1: list, sig2: list) -> Optional[tuple[list[int], list[int]]]:
        renumbered = self._renumber(sig1, sig2)
        if renumbered is None:
            return None
        col1, col2 = renumbered
        en1, en2 = self.en1, self.en2
        classes = len(set(col1))
        while classes < self.n:
            sig1 = [tuple(sorted(Counter(map(add, row, col1)).items())) for row in en1]
            sig2 = [tuple(sorted(Counter(map(add, row, col2)).items())) for row in en2]
            renumbered = self._renumber(sig1, sig2)
            if renumbered is None:
                return None
            col1, col2 = renumbered
            before, classes = classes, len(set(col1))
            if classes == before:
                break
        return col1, col2


def first_appearance(
    refined: Optional[tuple[Sequence[int], Sequence[int]]]
) -> Optional[list[int]]:
    """col1 + col2 with each id replaced by the index of its first
    appearance there, so equal results mean equal joint partitions; None
    stays None."""
    if refined is None:
        return None
    ids: dict[int, int] = {}
    return [ids.setdefault(c, len(ids)) for c in (*refined[0], *refined[1])]


class RowKeysIsoSearch(_IsoSearch):
    """The search with its edge-round keys built per point from the point's
    own row layout; the rest, the shape numbers included, is inherited."""

    def __init__(self, d1, d2, en1, en2) -> None:
        super().__init__(d1, d2, en1, en2)
        n = self.n
        shapes: dict[tuple[int, ...], tuple] = {}

        def layout(ids: tuple[int, ...]) -> tuple:
            if len(set(ids)) == n:
                return len(shapes), None, ()
            count = Counter(ids)
            longest = max(count, key=count.__getitem__)
            once, slices, start = [], [], 0
            for e, k in count.items():
                if k == 1:
                    once.append(start)
                elif e != longest:
                    slices.append(slice(start, start + k))
                start += k
            return len(shapes), once, slices

        def rows(en: list[list[int]]) -> list[tuple]:
            out = []
            for row in en:
                order = sorted(range(n), key=row.__getitem__)
                ids = tuple(map(row.__getitem__, order))
                shape = shapes.get(ids)
                if shape is None:
                    shape = shapes[ids] = layout(ids)
                r, once, slices = shape
                singles = order if once is None else list(map(order.__getitem__, once))
                out.append((r, singles, [order[s] for s in slices]))
            return out

        self.rows1 = rows(en1)
        self.rows2 = rows(en2)

    def _keys(self, rows: list, col: list[int]) -> list[tuple[int, ...]]:
        colour = col.__getitem__
        bit = list(map(self.units.__getitem__, col)).__getitem__
        return [
            (r, *map(colour, singles), *[sum(map(bit, group)) for group in groups])
            for r, singles, groups in rows
        ]


def reference_anchor_signature(
    masks: list[int], col: list[int], anchors: tuple[int, ...], x: int
) -> list[tuple]:
    n = len(masks)
    mx = masks[x]
    return [
        (col[z], z == x, tuple((masks[a] & mx & masks[z]).bit_count() for a in anchors))
        for z in range(n)
    ]


def reference_out_of_range(v: int, block: Sequence[int]) -> bool:
    return any(not 0 <= i < v for i in block)


def reference_unsorted(block: Sequence[int]) -> bool:
    return any(x >= y for x, y in zip(block, block[1:]))


def reference_build(kind: str) -> IncidenceStructure:
    if kind == "pg33":
        blocks = tuple(tuple(b) for b in geometry.pg_hyperplanes(4, 3))
        return IncidenceStructure(40, blocks)
    if kind not in KIND_POINT_CLASS:
        raise ValueError(f"unknown design kind {kind!r}; expected one of {KINDS}")
    space = geometry.design_space()
    points = geometry.class_points(KIND_POINT_CLASS[kind])
    blocks = tuple(
        tuple(j for j, y in enumerate(points) if space.bilinear(x, y) == 0)
        for x in points
    )
    return IncidenceStructure(len(points), blocks)


def reference_pg_hyperplanes(dim: int, p: int) -> list[list[int]]:
    points = geometry.projective_points(dim, p)
    return [
        [i for i, x in enumerate(points) if sum(map(mul, h, x)) % p == 0]
        for h in points
    ]


def normalize(vec: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1 (canonical representative)."""
    vec = tuple(c % p for c in vec)
    for c in vec:
        if c:
            inv = pow(c, -1, p)
            return tuple(x * inv % p for x in vec)
    raise ValueError("zero vector has no projective normal form")


def reference_induce(matrices, points, p):
    if not points:
        raise ValueError("empty point list")
    index = {pt: i for i, pt in enumerate(points)}
    dim = len(points[0])
    gens = []
    for m in matrices:
        images = []
        for pt in points:
            w = tuple(
                sum(m[i][j] * pt[j] for j in range(dim)) % p for i in range(dim)
            )
            nf = normalize(w, p)
            j = index.get(nf)
            if j is None:
                raise ValueError(f"matrix maps ({':'.join(map(str, pt))}) outside the point set")
            images.append(j)
        gens.append(tuple(images))
    return PermutationAction(len(points), tuple(gens))


def reference_compose(p, q):
    """Apply p first, then q."""
    return tuple(q[i] for i in p)


def _reference_orbit_transversal(gens, beta, n):
    """Orbit of beta with coset representatives t_a satisfying t_a[beta] = a."""
    transversal = {beta: identity_perm(n)}
    queue = [beta]
    while queue:
        a = queue.pop(0)
        ta = transversal[a]
        for g in gens:
            b = g[a]
            if b not in transversal:
                transversal[b] = reference_compose(ta, g)
                queue.append(b)
    return transversal


def _reference_schreier_generators(gens, transversal):
    """Deduplicated nontrivial Schreier generators of the point stabilizer."""
    inv = {b: inverse(t) for b, t in transversal.items()}
    ident = identity_perm(len(next(iter(transversal.values()))))
    out = set()
    for a in sorted(transversal):
        ta = transversal[a]
        for g in gens:
            s = reference_compose(reference_compose(ta, g), inv[g[a]])
            if s != ident:
                out.add(s)
    return sorted(out)


def reference_stabilizer_chain(action):
    n = action.degree
    if n > 10_000:
        raise ValueError("degree beyond the desk-scale guard (10^4)")
    gens = sorted({g for g in action.generators if g != identity_perm(n)})
    base = []
    transversals = []
    order = 1
    while gens:
        beta = min(max(_orbits(gens, n), key=len))
        trans = _reference_orbit_transversal(gens, beta, n)
        base.append(beta)
        transversals.append(trans)
        order *= len(trans)
        gens = _reference_schreier_generators(gens, trans)
    return StabilizerChain(tuple(base), tuple(transversals), order)


def sifts(chain: StabilizerChain, g: Sequence[int]) -> bool:
    """True iff g strips to the identity through the chain: at each level
    the image of the base point must name a stored transversal element u,
    and g is replaced by g followed by u^-1."""
    g = list(g)
    for beta, transversal in zip(chain.base, chain.transversals):
        u = transversal.get(g[beta])
        if u is None:
            return False
        back = {y: x for x, y in enumerate(u)}
        g = [back[y] for y in g]
    return g == list(range(len(g)))


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


def reference_is_primitive(action):
    n = action.degree
    if len(orbit(action, 0)) != n:
        raise NotTransitiveError("action is not transitive")
    if n <= 2:
        return True
    return all(
        _closure_is_trivial(action.generators, n, beta) for beta in range(1, n)
    )


def reference_stabilizer_orbit_sizes(action, point):
    n = action.degree
    if not 0 <= point < n:
        raise ValueError("point out of range")
    if len(orbit(action, 0)) != n:
        raise NotTransitiveError("action is not transitive")
    trans = _reference_orbit_transversal(action.generators, point, n)
    sgens = _reference_schreier_generators(action.generators, trans)
    return sorted(len(o) for o in _orbits(sgens, n))


def reference_induced_block_action(action, design):
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


def reference_is_flag_transitive(action, design, block_action):
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


def reference_projective_points(dim, p):
    if dim < 1:
        raise ValueError("dim must be >= 1")
    seen = set()
    for vec in product(range(p), repeat=dim):
        if any(vec):
            seen.add(normalize(vec, p))
    return sorted(seen)


# catalog as it stood before each line became one row of ``_ROWS``


def reference_su_level_order(line: int, q: PrimePower, subfield: Optional[tuple[PrimePower, int]]) -> int:
    """Order of the written subgroup structure before dividing by d.

    Lines 11-16 are fixed groups dressed with a central factor: the central
    product 4o2^{1+4} has order 64, do2 has order max(d, 2), and extensions
    multiply orders.
    """
    x = q.q
    d = math.gcd(4, x + 1)
    if line == 1:  # E_q^{1+4}:SU_2(q):(q^2-1)
        return x**6 * (x**2 - 1) ** 2
    if line == 2:  # E_q^4:SL_2(q^2):(q-1)
        return x**6 * (x**4 - 1) * (x - 1)
    if line == 3:  # GU_3(q)
        return x**3 * (x**2 - 1) * (x**3 + 1) * (x + 1)
    if line == 4:  # (q+1)^3:S_4
        return 24 * (x + 1) ** 3
    if line == 5:  # SU_2(q)^2:(q+1).2
        return 2 * x**2 * (x**2 - 1) ** 2 * (x + 1)
    if line == 6:  # SL_2(q^2).(q-1).2
        return 2 * x**2 * (x**4 - 1) * (x - 1)
    if line == 7:  # SU_4(q0) with q = q0^r
        x0 = subfield[0].q
        return x0**6 * (x0**2 - 1) * (x0**3 + 1) * (x0**4 - 1)
    if line == 8:  # Sp_4(q).gcd(2,q+1)
        return math.gcd(2, x + 1) * x**4 * (x**2 - 1) * (x**4 - 1)
    if line == 9:  # SO_4^+(q).d
        return d * x**2 * (x**2 - 1) ** 2
    if line == 10:  # SO_4^-(q).d
        return d * x**2 * (x**4 - 1)
    if line == 11:  # (4o2^{1+4}).S_6
        return 64 * 720
    if line == 12:  # (4o2^{1+4}).A_6
        return 64 * 360
    if line == 13:  # (do2).PSL_2(7)
        return max(d, 2) * 168
    if line == 14:  # (do2).A_7
        return max(d, 2) * 2520
    if line == 15:  # 4_2.PSL_3(4)
        return 4 * 20160
    if line == 16:  # (do2).PSU_4(2)
        return max(d, 2) * 25920
    raise ValueError(f"no case line {line}")


def reference_subfield_decompositions(q: PrimePower) -> list[tuple[PrimePower, int]]:
    """All (q0, r) with q = q0^r and r an odd prime, ascending in r."""
    out = []
    for r in range(3, q.a + 1, 2):
        if q.a % r == 0 and all(r % f for f in range(3, r, 2)):
            out.append((PrimePower.of(q.p, q.a // r), r))
    return out


def reference_applies(line: int, q: PrimePower) -> bool:
    x, p, a = q.q, q.p, q.a
    if line in (1, 2, 3, 4, 8):
        return True
    if line == 5:
        return x >= 3
    if line == 6:
        return x >= 4
    if line == 7:
        return bool(reference_subfield_decompositions(q))
    if line == 9:
        return x >= 5 and p != 2
    if line == 10:
        return p != 2
    if line == 11:
        return a == 1 and x % 8 == 7
    if line == 12:
        return a == 1 and x % 8 == 3
    if line == 13:
        return a == 1 and x % 7 in (3, 5, 6) and x != 3
    if line == 14:
        return a == 1 and x % 7 in (3, 5, 6)
    if line == 15:
        return x == 3
    if line == 16:
        return a == 1 and x % 6 == 5
    raise ValueError(f"no case line {line}")


def reference_subdegree_divisors(line: int, q: PrimePower) -> list[int]:
    """Known divisors D with: some subdegree of G divides D.

    For the parabolic lines the entry is the p-part q^6; the sieve
    narrows it with gcd(q^6, v-1) before applying k | lambda*D.
    """
    x = q.q
    if line in (1, 2):
        return [x**6]
    if line == 3:
        return [(x + 1) * (x**3 + 1)]
    if line == 5:
        return [2 * (x**2 - 1) ** 2]
    if line == 6:
        return [2 * (x**4 - 1)]
    return []


def _make_case(line: int, subfield: Optional[tuple[PrimePower, int]] = None) -> tuple:
    return (line, line in PARABOLIC_LINES, subfield)


def reference_cases_for(q: PrimePower) -> list[tuple]:
    """The case lines applicable at q, line 7 once per (q0, r) decomposition."""
    out = []
    for line in catalog.LINES:
        if line == 7:
            for dec in reference_subfield_decompositions(q):
                out.append(_make_case(7, dec))
        elif reference_applies(line, q):
            out.append(_make_case(line))
    return out


def _reference_block_masks(design: IncidenceStructure) -> list[int]:
    """Per block, the bitmask of its points."""
    out = []
    for block in design.blocks:
        m = 0
        for i in block:
            m |= 1 << i
        out.append(m)
    return out


def reference_verify_symmetric(design: IncidenceStructure):
    """Check the symmetric-design axioms; return the parameters or the first
    violated axiom with a witness pair."""
    v = design.v
    if len(design.blocks) != v:
        return VerificationFailure("block_count", (v, len(design.blocks)))
    if v < 4:
        return VerificationFailure("nontriviality", (v,))
    k = len(design.blocks[0])
    for b, block in enumerate(design.blocks):
        if len(block) != k:
            return VerificationFailure("block_size", (b, len(block), k))
    pmasks = design.point_masks()
    for i, m in enumerate(pmasks):
        if m.bit_count() != k:
            return VerificationFailure("replication", (i, m.bit_count(), k))
    lam = (pmasks[0] & pmasks[1]).bit_count()
    for x in range(v):
        for y in range(x + 1, v):
            common = (pmasks[x] & pmasks[y]).bit_count()
            if common != lam:
                return VerificationFailure("point_pair", (x, y, common, lam))
    bmasks = _reference_block_masks(design)
    for i in range(v):
        for j in range(i + 1, v):
            common = (bmasks[i] & bmasks[j]).bit_count()
            if common != lam:
                return VerificationFailure("block_pair", (i, j, common, lam))
    if not 2 < k < v - 1:
        return VerificationFailure("nontriviality", (v, k))
    return DesignParams(v, k, lam)


class ReferenceDesignParams(_DesignParams):
    """A symmetric (v, k, lambda) parameter triple, checked four ways."""

    __slots__ = ()

    def __new__(cls, v: int, k: int, lam: int) -> "ReferenceDesignParams":
        if not 2 < k < v - 1:
            raise ValueError(f"nontriviality 2 < k < v-1 fails for {(v, k, lam)}")
        if k * (k - 1) != lam * (v - 1):
            raise ValueError(f"k(k-1) = lambda(v-1) fails for {(v, k, lam)}")
        if lam * v >= k * k:
            raise ValueError(f"lambda*v < k^2 fails for {(v, k, lam)}")
        if not is_perfect_square(4 * lam * (v - 1) + 1):
            raise ValueError(f"4*lambda*(v-1)+1 is not a square for {(v, k, lam)}")
        return super().__new__(cls, v, k, lam)
