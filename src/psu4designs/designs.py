"""Incidence structures: construction, verification, isomorphism, file format.

Four builders, all on the point sets of ``geometry``:

* ``menon36``  - the 36 square-type points of the dim-5 orthogonal F_3 space,
* ``minus45``  - the 45 nonsquare-type points of the same space,
* ``higman40`` - its 40 isotropic points,
* ``pg33``     - the 40 points of the projective geometry of F_3^4 with the
  40 hyperplanes as blocks.

In the three orthogonal constructions block i is the perp of point i, which
makes the polarity explicit and the incidence matrix symmetric;
``verify_symmetric`` must not and does not rely on that.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, filterfalse, islice, repeat
from operator import add, itemgetter, lt, not_
from struct import Struct
from typing import NamedTuple, Optional, Sequence, Union

from . import geometry
from .geometry import ISOTROPIC, NONSQUARE_TYPE, SQUARE_TYPE
from .exactmath import DesignParams

__all__ = [
    "IncidenceStructure",
    "VerificationFailure",
    "DesignFormatError",
    "KINDS",
    "KIND_POINT_CLASS",
    "build",
    "verify_symmetric",
    "complement",
    "find_isomorphism",
    "is_isomorphism",
    "format_design",
    "parse_design",
    "write_design",
    "read_design",
]

KIND_POINT_CLASS = {
    "menon36": SQUARE_TYPE,
    "minus45": NONSQUARE_TYPE,
    "higman40": ISOTROPIC,
}

KINDS = (*KIND_POINT_CLASS, "pg33")


class _IncidenceStructure(NamedTuple):
    v: int
    blocks: tuple[tuple[int, ...], ...]


class IncidenceStructure(_IncidenceStructure):
    """Points 0..v-1 and blocks as sorted index tuples, in construction order."""

    __slots__ = ()

    def __new__(cls, v: int, blocks: tuple[tuple[int, ...], ...]) -> IncidenceStructure:
        # tuples, so that the checks and every later reader see hashable blocks
        blocks = tuple(map(tuple, blocks))
        for b, block in enumerate(blocks):
            if block and (min(block) < 0 or max(block) >= v):
                raise ValueError(f"block {b} has an out-of-range point index")
            if not all(map(lt, block, block[1:])):
                raise ValueError(f"block {b} is not strictly sorted")
        return super().__new__(cls, v, blocks)

    def point_masks(self) -> list[int]:
        """Per point, the bitmask of blocks containing it."""
        masks = [0] * self.v
        for b, block in enumerate(self.blocks):
            bit = 1 << b
            for i in block:
                masks[i] |= bit
        return masks


class VerificationFailure(NamedTuple):
    """The first violated symmetric-design axiom, with a witness."""

    axiom: str
    witness: tuple

    def __str__(self) -> str:
        return f"{self.axiom} violated at {self.witness}"


def build(kind: str) -> IncidenceStructure:
    if kind == "pg33":
        blocks = tuple(tuple(b) for b in geometry.pg_hyperplanes(4, 3))
        return IncidenceStructure(40, blocks)
    if kind not in KIND_POINT_CLASS:
        raise ValueError(f"unknown design kind {kind!r}; expected one of {KINDS}")
    space = geometry.design_space()
    points = geometry.class_points(KIND_POINT_CLASS[kind])
    # B(x, y) is the dot product of y with x's Gram row x^T G; the packed dot
    # products with the rows of G give every point's Gram row, and those
    # with a Gram row give its products with every point
    dots = geometry._dot_products(points, space.p)
    every = range(len(points))
    blocks = tuple(
        tuple(compress(every, map(not_, dots(gx)))) for gx in zip(*map(dots, space.gram))
    )
    return IncidenceStructure(len(points), blocks)


def verify_symmetric(
    design: IncidenceStructure,
) -> Union[DesignParams, VerificationFailure]:
    """Check the symmetric-design axioms; return the parameters or the first
    violated axiom with a witness.

    In order: v blocks, v >= 4, block sizes k, replication numbers k,
    k not <= 1 nor >= v-1, every point pair on lambda blocks.  Then
    lambda(v-1) = k(k-1), which for v >= 4 rules out k = 2, so 2 < k < v-1.
    Block pairs are not checked: these make any two blocks meet in lambda
    points (Ryser).  With N the incidence matrix, NJ = JN = kJ and NN^T =
    (k-lambda)I + lambda*J with lambda < k, so N is invertible and N^T N =
    N^-1 (NN^T) N = (k-lambda)I + lambda*J.
    """
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
    # The pair pass would pass: every pair lies on 0 blocks for k <= 1 (empty
    # blocks or the v singletons), on v-2 for k = v-1 and on v for k = v.
    if k <= 1 or k >= v - 1:
        return VerificationFailure("nontriviality", (v, k))
    lam = (pmasks[0] & pmasks[1]).bit_count()
    for x in range(v):
        for y in range(x + 1, v):
            common = (pmasks[x] & pmasks[y]).bit_count()
            if common != lam:
                return VerificationFailure("point_pair", (x, y, common, lam))
    return DesignParams(v, k, lam)


def complement(design: IncidenceStructure) -> IncidenceStructure:
    """Replace every block by its complement in the point set.

    The blocks skip ``IncidenceStructure``'s checks: each is read off
    0..v-1 in order, so it is strictly sorted and in range by construction.
    """
    every = range(design.v)
    blocks = tuple(tuple(filterfalse(set(b).__contains__, every)) for b in design.blocks)
    return IncidenceStructure._make((design.v, blocks))


def is_isomorphism(
    d1: IncidenceStructure, d2: IncidenceStructure, perm: list[int]
) -> bool:
    """Independent re-validation that perm maps the blocks of d1 onto d2's."""
    if d1.v != d2.v or len(perm) != d1.v or set(perm) != set(range(d1.v)):
        return False
    mapped = Counter(tuple(sorted(perm[i] for i in b)) for b in d1.blocks)
    return mapped == Counter(d2.blocks)


# ---------------------------------------------------------------------------
# Isomorphism search: backtracking over point images with partition
# refinement.  The initial invariant is, per point pair, the multiset of
# triple intersection numbers |B(x) & B(y) & B(z)| over third points z.
# The profiles never see a point's replication number, so the root
# colouring starts from it: an isomorphism preserves it, and points that
# differ in it alone would otherwise be told apart only at the leaves.
# Individualising a point gives it a colour of its own, as in McKay and
# Piperno, "Practical graph isomorphism II" (2014).  Plain 1-WL refinement
# stalls on these designs (the rank-3 partitions are equitable), so each
# individualisation also refines every vertex by its triple counts against
# the anchor set picked so far, which discretises the colouring after two
# or three anchors.
#
# A dense pair (2 sum|B| > v b, the same for both designs once their block
# sizes agree) is searched on its complements, which leave _pair_profiles
# fewer incidences to count; a tie is not complemented.  A bijection maps
# D's blocks onto E's exactly when it maps their complements, so answers
# stay the same.  With every point on r blocks and every pair on lambda, the
# complement's triple count of three distinct points is
# t' = b - 3r + 3 lambda - t, a bijection of t, and its pair and replication
# numbers are constants too, so every colouring, id and witness is the dense
# pair's.
#
# The profiles are counted per value.  Write
# M(x, y, z) = |B(x) & B(y) & B(z)|, which is symmetric in its three points.
# Pair (y, z)'s histogram counts, for each value t, the points w with
# M(w, y, z) = t, and by the symmetry these are the points x with
# M(x, y, z) = t.  So summing over x the 0/1 indicator of M(x, ., .) == t
# gives, at (y, z), the count of t in that histogram, for every pair at once.
#
# Each block becomes one big int with a field per pair y < z, 1 when y and
# z both lie in the block; summed over the blocks through x, field (y, z)
# is M(x, y, z), and summed over all blocks it is lambda_yz = M(y, y, z).
# bytes.translate maps each byte to the bits of the (up to 8) values that
# byte matches, one bit per value; a field matches a value when all of its
# bytes do, and the matching bit, shifted down and masked, is that value's
# indicator, added into its count int.  A field holds a
# triple count in the sums and a count of points in the count ints, so its
# width comes from the larger of the largest replication number and v,
# never a fixed byte: with one-byte fields, 300 copies of a block read as
# 44, and at v = 260 a count of 258 reads as 2.  A pair's lambda and counts
# become one bytes key, and the (lambda, sorted histogram) profile is built
# once per distinct key.  Values are collected as they appear: a value
# first met at x occurs at no earlier x, so its count starts at 0.  When
# every triple count fits a byte, one bytes.translate deletes the known
# values from the fields' low bytes; else the fields are unpacked, which
# alone would cost about a tenth of the structures benchmark's throughput.
# Only the triangle y < z is held.  No profile reads the diagonal fields
# it leaves out, and every value it holds is in a profile: M(x, y, z) is
# in pair (y, z)'s, as its lambda or in its histogram.
#
# Each design's profiles come back as the codes of its pairs x < y and the
# list of its distinct profiles, so the two designs are matched on their
# few distinct profiles, not on v^2 nested tuples.  _edge_codes numbers
# d1's profiles from 1, leaving id 0 to the diagonal.  d2 is given up in
# three places: find_isomorphism on unequal point counts or block sizes;
# _edge_codes, with None, when d2 has a profile that d1 lacks (the root
# refinement would reject it anyway, because the points of d2 on such a
# pair have a code that no point of d1 has); and _refine, whenever the two
# signature multisets differ.  Past _edge_codes, d2's profiles are among
# d1's, and only then is each design's symmetric matrix built, once, from
# its codes.
#
# Edge and colour ids are labels, not ranks: each is the index at which its
# profile, signature or key first appears in d1, shared with d2.  A pair
# test needs no more, as no canonical form is built; only tie-breaks, and so
# the witness, follow that order.  _IsoSearch lays out each row of the two
# matrices once per search: the points of the ids that occur once in the
# row, and the runs of the other ids.  An edge round keys each point by the
# colours of the former and a packed sum of colour counts per run, no sort.
# Rows of one shape (the same sorted ids) share their layout, so each
# design's rows are held as columns, one per position of each shape, and
# the keys of a shape's points come from one zip over its columns.
# ---------------------------------------------------------------------------


def _pair_profiles(design: IncidenceStructure) -> tuple[list[int], list[tuple]]:
    """The codes of the pairs x < y, row by row, and the profiles they index.

    Code c of pair (x, y) stands for keys[c], the pair (lambda_xy, sorted
    histogram of the triple counts over z != x, y).  Codes are numbered in
    order of first appearance.

    Memory: the b block ints are held at once, b * v(v-1)/2 fields of the
    smallest of 1, 2, 4, 8 bytes that holds both v and the largest
    replication number (45 kB for b = v = 45), with one count int of that
    size per distinct triple count and, at the end, one bytes key per pair.
    """
    n = design.v
    through: list[list[int]] = [[] for _ in range(n)]
    for b, block in enumerate(design.blocks):
        for i in block:
            through[i].append(b)
    most = max(map(len, through), default=0)
    # a field holds a triple count, at most most, and a count of points, at
    # most n; the sizes are struct's standard ones, read with "<" formats
    fmt, size = next(
        (f, s) for f, s in zip("BHIQ", (1, 2, 4, 8)) if max(most, n) < 1 << 8 * s
    )
    pairs = n * (n - 1) // 2
    span = size * pairs
    # row y of the triangle holds the fields (y, z), z > y
    starts = [size * (y * n - y * (y + 1) // 2) for y in range(n + 1)]
    blocks = []
    for block in design.blocks:
        col = bytearray(size * n)
        for z in block:
            col[size * z] = 1
        triangle = bytearray(span)
        for y in block:
            triangle[starts[y]:starts[y + 1]] = col[size * (y + 1):]
        blocks.append(int.from_bytes(triangle, "little"))
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * pairs, "little")
    lams = sum(blocks).to_bytes(span, "little")
    values: list[int] = []
    # per group of up to 8 values, a translate table per byte of a field
    tables: list[list[bytearray]] = []
    counts: list[list[int]] = []
    for x in range(n):
        triples = sum(map(blocks.__getitem__, through[x])).to_bytes(span, "little")
        if most < 256:
            new = set(triples[::size].translate(None, bytes(values)))
        else:
            new = set(Struct(f"<{pairs}{fmt}").unpack(triples)).difference(values)
        for t in new:
            if len(values) % 8 == 0:
                tables.append([bytearray(256) for _ in range(size)])
                counts.append([])
            for j, table in enumerate(tables[-1]):
                table[t >> 8 * j & 255] |= 1 << len(counts[-1])
            counts[-1].append(0)
            values.append(t)
        for group_tables, group in zip(tables, counts):
            bits = -1
            for j, table in enumerate(group_tables):
                bits &= int.from_bytes(triples.translate(table), "little") >> 8 * j
            for i in range(len(group)):
                group[i] += bits >> i & ones
    # field j of a key is lambda for j = 0, else the count of values[j - 1]
    width = size * (len(values) + 1)
    fields = bytearray(width * pairs)
    planes = [lams] + [c.to_bytes(span, "little") for group in counts for c in group]
    for j, plane in enumerate(planes):
        for r in range(size):
            fields[size * j + r::width] = plane[r::size]
    seen = Struct(f"{width}s" * pairs).unpack(fields)
    memo = dict.fromkeys(seen)
    keys: list[tuple] = []
    unpack = Struct(f"<{len(values) + 1}{fmt}").unpack
    for pair in memo:
        lam, *tally = unpack(pair)
        hist = {t: c for t, c in zip(values, tally) if c}
        hist[lam] -= 2
        if not hist[lam]:
            del hist[lam]
        memo[pair] = len(keys)
        keys.append((lam, tuple(sorted(hist.items()))))
    return list(map(memo.__getitem__, seen)), keys


def _edge_codes(
    d1: IncidenceStructure, d2: IncidenceStructure
) -> Optional[tuple[list[list[int]], list[list[int]]]]:
    """Per design, the v x v matrix of e at (x, y), e the number of the
    pair's profile among d1's in order of first appearance, counted from 1,
    and 0 on the diagonal, built once from the design's pair codes.  None,
    before any matrix is built, when d2 has a profile that d1 lacks."""
    n = d1.v
    codes1, keys1 = _pair_profiles(d1)
    codes2, keys2 = _pair_profiles(d2)
    rank = {k: i for i, k in enumerate(keys1, 1)}
    if not rank.keys() >= set(keys2):
        return None

    def matrix(codes: list[int], keys: list[tuple]) -> list[list[int]]:
        en = list(map(rank.__getitem__, keys))
        pairs = iter(map(en.__getitem__, codes))  # row y holds n - 1 - y pairs
        upper = [[0] * (y + 1) + list(islice(pairs, n - 1 - y)) for y in range(n)]
        return [list(map(add, row, col)) for row, col in zip(upper, zip(*upper))]

    return matrix(codes1, keys1), matrix(codes2, keys2)


def _anchor_signature(masks: list[int], col: list[int], anchors: tuple[int, ...],
                      x: int) -> list[tuple]:
    """Per point z, (col'[z], c_1, ..., c_d) with c_i = |B(a_i) & B(x) & B(z)|,
    one count list per anchor, and col' the colouring col with x individualised:
    given colour -1, which no colour id takes.  Two points get equal tuples
    exactly when (col, z == x, (c_i)) is equal; col is left as it is."""
    counts = [[(p & m).bit_count() for m in masks] for p in [masks[a] & masks[x] for a in anchors]]
    own = col.copy()
    own[x] = -1
    return list(zip(own, *counts))


class _IsoSearch:
    """Joint individualisation-refinement over two equal-size designs."""

    def __init__(
        self,
        d1: IncidenceStructure,
        d2: IncidenceStructure,
        en1: list[list[int]],
        en2: list[list[int]],
    ) -> None:
        n = self.n = d1.v
        self.d1 = d1
        self.d2 = d2
        self.masks1 = d1.point_masks()
        self.masks2 = d2.point_masks()
        w = n.bit_length()
        self.units = [1 << w * c for c in range(n)]
        shapes: dict[tuple[int, ...], tuple] = {}

        def layout(ids: tuple[int, ...]) -> tuple:
            # a row's shape is its sorted ids, the diagonal's 0 first.  Per
            # shape: its number, the positions of the ids that occur once
            # and the slices of the runs of the other ids but the longest,
            # whose sum the key leaves out
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

        def rows(en: list[list[int]]) -> tuple[list[tuple], Optional[itemgetter]]:
            # per shape, in order of first appearance: its number, its point
            # count, and per position a column over its points x: the y whose
            # id occurs once and the y of each run but the longest in x's row,
            # in order of id.  The getter puts keys laid out shape by shape
            # back in point order; None when they already are.
            by_shape: dict[int, tuple[list, list, list]] = {}
            for x, row in enumerate(en):
                order = sorted(range(n), key=row.__getitem__)
                ids = tuple(map(row.__getitem__, order))
                shape = shapes.get(ids)
                if shape is None:
                    shape = shapes[ids] = layout(ids)
                r, once, slices = shape
                xs, singles, groups = by_shape.setdefault(r, ([], [], []))
                xs.append(x)
                singles.append(list(map(order.__getitem__, once)))
                groups.append([order[s] for s in slices])
            laid = [x for xs, _, _ in by_shape.values() for x in xs]
            columns = [(r, len(xs), list(zip(*singles)), list(zip(*groups)))
                       for r, (xs, singles, groups) in by_shape.items()]
            if laid == sorted(laid):
                return columns, None
            return columns, itemgetter(*sorted(range(n), key=laid.__getitem__))

        self.rows1 = rows(en1)
        self.rows2 = rows(en2)

    def _refine(self, sig1: list, sig2: list) -> Optional[tuple[list[int], list[int]]]:
        # The signatures come raw: replication numbers at the root, the flat
        # tuples of _anchor_signature after an individualisation.  They are
        # the first round's keys; each later round keys point x by its row's
        # layout: the shape number, the colours of the y whose id occurs once
        # in the row (y = x first: id 0 is the diagonal's alone), and per
        # other run but the longest the sum of 1 << w * col[y] over its y,
        # whose w-bit field c counts colour c with no carry, as n < 2^w.  The
        # longest run holds all colours less the rest of the row's, and all
        # colours are the same for every point of both designs, whose classes
        # have equal sizes.  So the key determines the multiset of (edge id,
        # colour) over all y, and is determined by it.
        # Unequal key multisets (plain dicts: all counts are positive, and
        # Counter's == is slower) give d2 up; else the distinct keys,
        # numbered in order of first appearance in d1, are the colouring.  A
        # later key holds col[x], so no round merges classes; one that splits
        # none returns the colouring as it came in, as most rounds do.
        # A discrete colouring is returned as it is.  A further round could
        # not change its classes, only fail; and if it fails, the bijection
        # the colouring fixes maps some pair to a pair with another edge id,
        # so it is no isomorphism and _extract rejects the same branch.
        keys1, keys2, classes = sig1, sig2, -1  # the first round always numbers
        while True:
            tally = Counter(keys1)
            if not dict.__eq__(tally, Counter(keys2)):
                return None
            if len(tally) == classes:
                return col1, col2
            ids = {k: i for i, k in enumerate(tally)}
            col1 = list(map(ids.__getitem__, keys1))
            col2 = list(map(ids.__getitem__, keys2))
            classes = len(ids)
            if classes == self.n:
                return col1, col2
            keys1, keys2 = self._keys(self.rows1, col1), self._keys(self.rows2, col2)

    def _keys(self, rows: tuple, col: list[int]) -> Sequence[tuple[int, ...]]:
        # one zip per shape over its columns, each key as the comment in
        # _refine says, then back in point order
        columns, restore = rows
        colour = col.__getitem__
        bit = list(map(self.units.__getitem__, col)).__getitem__
        out: list[tuple[int, ...]] = []
        for r, m, singles, groups in columns:
            out += zip(repeat(r, m), *map(map, repeat(colour), singles),
                       *[map(sum, map(map, repeat(bit), column)) for column in groups])
        return out if restore is None else restore(out)

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
        # anchor-triple refinement, by _anchor_signature; d1's is the same for every y
        sig1 = _anchor_signature(self.masks1, col1, anchors1, x)
        for y in range(self.n):
            if col2[y] != target:
                continue
            refined = self._refine(sig1, _anchor_signature(self.masks2, col2, anchors2, y))
            if refined is None:
                continue
            found = self.search(
                refined[0], refined[1], anchors1 + (x,), anchors2 + (y,)
            )
            if found is not None:
                return found
        return None


def find_isomorphism(
    d1: IncidenceStructure, d2: IncidenceStructure
) -> Optional[list[int]]:
    """A point bijection mapping blocks onto blocks, or None.

    Any witness returned has passed ``is_isomorphism``.
    """
    n = d1.v
    if n != d2.v or sorted(map(len, d1.blocks)) != sorted(map(len, d2.blocks)):
        return None
    if 2 * sum(map(len, d1.blocks)) > n * len(d1.blocks):
        d1, d2 = complement(d1), complement(d2)
    codes = _edge_codes(d1, d2)
    if codes is None:
        return None
    searcher = _IsoSearch(d1, d2, *codes)
    start = searcher._refine(
        [m.bit_count() for m in searcher.masks1], [m.bit_count() for m in searcher.masks2]
    )
    if start is None:
        return None
    return searcher.search(*start)


# ---------------------------------------------------------------------------
# Design file format (byte-exact):
#   line 1: "v b"
#   then b lines, each the sorted zero-based point indices of one block
#   trailing newline, no comments
# ---------------------------------------------------------------------------


class DesignFormatError(ValueError):
    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def format_design(design: IncidenceStructure) -> str:
    lines = [f"{design.v} {len(design.blocks)}"]
    lines.extend(" ".join(map(str, block)) for block in design.blocks)
    return "\n".join(lines) + "\n"


def _naturals(tokens: list[str]) -> tuple[int, ...]:
    """The tokens as integers; ValueError unless each is ASCII decimal digits,
    as int() alone would also take a sign, underscores and other scripts."""
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError("not a decimal digit string")
    return tuple(map(int, tokens))


def parse_design(text: str) -> IncidenceStructure:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DesignFormatError(1, "empty file")
    header = lines[0].split()
    try:
        v, b = _naturals(header)
    except ValueError:
        raise DesignFormatError(1, "header must be two integers: v b") from None
    if v < 1:
        raise DesignFormatError(1, f"bad sizes v={v} b={b}")
    if len(lines) - 1 != b:
        # point at the first missing or first surplus line
        bad = len(lines) + 1 if len(lines) - 1 < b else b + 2
        raise DesignFormatError(bad, f"expected {b} block lines, found {len(lines) - 1}")
    blocks = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            idx = _naturals(line.split())
        except ValueError:
            raise DesignFormatError(lineno, "block entries must be integers") from None
        if idx and max(idx) >= v:  # _naturals leaves no negative index
            raise DesignFormatError(lineno, "point index out of range")
        if not all(map(lt, idx, idx[1:])):
            raise DesignFormatError(lineno, "block must be strictly increasing")
        blocks.append(idx)
    # _make skips IncidenceStructure.__new__, whose block checks are the
    # per-line checks just made
    return IncidenceStructure._make((v, tuple(blocks)))


def write_design(design: IncidenceStructure, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_design(design))


def read_design(path: str) -> IncidenceStructure:
    with open(path, "rb") as fh:  # universal newlines, as text mode reads them
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DesignFormatError(lineno, "non-ASCII byte") from None
    return parse_design(text)
