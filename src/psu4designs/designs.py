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
from itertools import islice, repeat
from operator import add, mul
from struct import Struct
from typing import NamedTuple, Optional, Union

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
        for b, block in enumerate(blocks):
            if any(not 0 <= i < v for i in block):
                raise ValueError(f"block {b} has an out-of-range point index")
            if any(x >= y for x, y in zip(block, block[1:])):
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
    # B(x, y) is the dot product of y with x's Gram row x^T G
    grams = [space.gram_row(x) for x in points]
    blocks = tuple(
        tuple(j for j, y in enumerate(points) if not sum(map(mul, gx, y)) % space.p)
        for gx in grams
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
    """Replace every block by its complement in the point set."""
    full = set(range(design.v))
    blocks = tuple(tuple(sorted(full - set(b))) for b in design.blocks)
    return IncidenceStructure(design.v, blocks)


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
# Plain 1-WL refinement stalls on these designs (the rank-3 partitions are
# equitable), so each individualisation also refines every vertex by its
# triple counts against the anchor set picked so far, which discretises
# the colouring after two or three anchors.
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
# is M(x, y, z).  bytes.translate maps each byte to the bits of the (up to
# 8) values that byte matches, one bit per value; a field matches a value
# when all of its bytes do, and the matching bit, shifted down and masked,
# is that value's indicator, added into its count int.  A field holds a
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
# few distinct profiles, not on v^2 nested tuples.  _edge_codes ranks d1's
# profiles from 1, leaving id 0 to the diagonal.  d2 is given up in three
# places: find_isomorphism on unequal point counts or block sizes;
# _edge_codes, with None, when d2 has a profile that d1 lacks (the root
# refinement would reject it anyway, because the points of d2 on such a
# pair have a code that no point of d1 has); and _refine, whenever the two
# signature multisets differ.  Past _edge_codes, d2's profiles are among
# d1's, the ranks are the ranks over both designs, and only then is each
# design's symmetric matrix built, once, from its codes.
#
# _IsoSearch lays out each row of the two matrices once per search: the
# points of the ids that occur once in the row, and the runs of the other
# ids.  An edge round keys each point by the colours of the former and a
# packed sum of colour counts per run, with no sort, and ranks colours only
# in a round that splits a class (_refine gives the argument).
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
    values: list[int] = []
    # per group of up to 8 values, a translate table per byte of a field
    tables: list[list[bytearray]] = []
    counts: list[list[int]] = []
    lams = bytearray()
    for x in range(n):
        triples = sum(map(blocks.__getitem__, through[x])).to_bytes(span, "little")
        lams += triples[starts[x]:starts[x + 1]]
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
    """Per design, the v x v matrix of e * v at (x, y), e the rank of the
    pair's profile among d1's profiles counted from 1, and 0 on the
    diagonal, built once from the design's pair codes.  None, before any
    matrix is built, when d2 has a profile that d1 lacks."""
    n = d1.v
    codes1, keys1 = _pair_profiles(d1)
    codes2, keys2 = _pair_profiles(d2)
    rank = {k: i * n for i, k in enumerate(sorted(keys1), 1)}
    if not rank.keys() >= set(keys2):
        return None

    def matrix(codes: list[int], keys: list[tuple]) -> list[list[int]]:
        en = list(map(rank.__getitem__, keys))
        pairs = iter(map(en.__getitem__, codes))  # row y holds n - 1 - y pairs
        upper = [[0] * (y + 1) + list(islice(pairs, n - 1 - y)) for y in range(n)]
        return [list(map(add, row, col)) for row, col in zip(upper, zip(*upper))]

    return matrix(codes1, keys1), matrix(codes2, keys2)


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
        self.en1 = en1
        self.en2 = en2
        w = self.width = next(b for b in (8, 16, 32, 64) if n < 1 << b)
        self.units = [1 << w * c for c in range(n)]
        shapes: dict[tuple[int, ...], tuple] = {}

        def layout(ids: tuple[int, ...]) -> tuple:
            # a row's shape is its sorted ids, the diagonal's 0 first.  Per
            # shape: its number, the positions of the ids that occur once
            # (None when all do, as in most rows of irregular structures,
            # which then take no step per id), the slices of the runs of the
            # other ids but the longest, whose sum the key leaves out, and
            # for decoding the ids of both, the longest run's last
            if len(set(ids)) == n:
                return len(shapes), None, (), ids, ()
            count = Counter(ids)
            longest = max(count, key=count.__getitem__)
            once, slices, runs, start = [], [], [], 0
            for e, k in count.items():
                if k == 1:
                    once.append(start)
                elif e != longest:
                    slices.append(slice(start, start + k))
                    runs.append(e)
                start += k
            return len(shapes), once, slices, [ids[i] for i in once], runs + [longest]

        def rows(en: list[list[int]]) -> list[tuple]:
            # per point x: its row's shape number, the y whose id occurs once
            # and the y of each run but the longest, all in order of id
            out = []
            for row in en:
                order = sorted(range(n), key=row.__getitem__)
                ids = tuple(map(row.__getitem__, order))
                shape = shapes.get(ids)
                if shape is None:
                    shape = shapes[ids] = layout(ids)
                r, once, slices = shape[:3]
                singles = order if once is None else list(map(order.__getitem__, once))
                out.append((r, singles, [order[s] for s in slices]))
            return out

        self.rows1 = rows(en1)
        self.rows2 = rows(en2)
        self.shapes = [shape[3:] for shape in shapes.values()]

    def _refine(self, sig1: list, sig2: list) -> Optional[tuple[list[int], list[int]]]:
        # The signatures come raw: the replication numbers at the root, the
        # (colour, anchor flag, anchor triple counts) tuples after an
        # individualisation.  Unequal multisets give d2 up; else the distinct
        # signatures, numbered in sorted order, are the first colouring.
        # In each edge round a point's signature is the multiset of codes
        # e * n + c over all y, e the edge id of (x, y) and c the colour of y,
        # and the new ids rank the signatures by their (code, count) items in
        # code order, so equal signatures in d1 and d2 get equal ids.  As
        # c < n, the codes order exactly as the (e, c) pairs.  Id 0 is the
        # diagonal's alone (_edge_codes ranks the real profiles from 1), so
        # y = x adds the leading item (col[x], 1) and nothing else.
        if sorted(sig1) != sorted(sig2):
            return None
        ids = {s: i for i, s in enumerate(sorted(set(sig1)))}
        col1, col2 = [ids[s] for s in sig1], [ids[s] for s in sig2]
        w = self.width
        field = (1 << w) - 1
        units = self.units

        def keys(rows: list, col: list[int]) -> list[tuple[int, ...]]:
            colour = col.__getitem__
            bit = list(map(units.__getitem__, col)).__getitem__
            return [
                (r, *map(colour, singles), *[sum(map(bit, group)) for group in groups])
                for r, singles, groups in rows
            ]

        def items(key: tuple[int, ...]) -> list[tuple[int, int]]:
            once, runs = self.shapes[key[0]]
            k = 1 + len(once)
            out = list(zip(map(add, once, key[1:k]), repeat(1)))
            sums = key[k:]
            if runs:  # the longest run holds what the others leave of the total
                sums += (total - sum(map(units.__getitem__, key[1:k])) - sum(sums),)
            for e, s in zip(runs, sums):
                while s:
                    c = ((s & -s).bit_length() - 1) // w
                    count = s >> w * c & field
                    out.append((e + c, count))
                    s -= count << w * c
            out.sort()
            return out

        # Keys.  A round keys point x by its row's layout: the shape number,
        # the colours of the y whose id occurs once in the row, y = x first,
        # and for each other run but the longest the sum of 1 << w * col[y]
        # over its y.  Field c of a sum, w bits wide, counts the code
        # e * n + c; w is the smallest of 8, 16, 32 and 64 with n < 2^w, so
        # no count carries into the next field.  The longest run's sum is
        # the total of 1 << w * col[y] over all y less the rest of the row,
        # and the total is the same for every point of both designs, whose
        # classes have equal sizes.  So the key determines the signature and
        # is determined by it.
        # No-split rounds.  The key multisets are compared first, so unequal
        # ones still give d2 up.  A key holds col[x], so if d1 has no more
        # keys than classes, no class splits; and as every signature's least
        # item is (col[x], 1), ranking them would give every point its old
        # id.  The colouring is returned as it came in; most rounds end here.
        # Splitting rounds.  Only they decode the distinct keys into their
        # items, a once-id's straight from its colour and a sum field by
        # field from its lowest set bit, so a key costs its nonzero fields,
        # not one per class.
        # A discrete colouring is returned as it is.  A further round could
        # not change its ids, only fail; and if it fails, the bijection the
        # colouring fixes maps some pair to a pair with another edge id, so
        # it is no isomorphism and _extract rejects the same branch.
        classes = len(ids)
        while classes < self.n:
            keys1, keys2 = keys(self.rows1, col1), keys(self.rows2, col2)
            tally = Counter(keys1)
            if tally != Counter(keys2):
                return None
            if len(tally) == classes:
                break
            total = sum(map(units.__getitem__, col1))
            ids = {k: i for i, k in enumerate(sorted(tally, key=items))}
            col1 = list(map(ids.__getitem__, keys1))
            col2 = list(map(ids.__getitem__, keys2))
            classes = len(ids)
        return col1, col2

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
        # anchor-triple refinement: colour every z by its triple counts with
        # (a, x) over all previous anchors a; d1's side is the same for every y
        n = self.n
        m1, m2 = self.masks1, self.masks2
        mx = m1[x]
        sig1 = [
            (col1[z], z == x, tuple((m1[a] & mx & m1[z]).bit_count() for a in anchors1))
            for z in range(n)
        ]
        for y in range(n):
            if col2[y] != target:
                continue
            my = m2[y]
            sig2 = [
                (col2[z], z == y, tuple((m2[b] & my & m2[z]).bit_count() for b in anchors2))
                for z in range(n)
            ]
            refined = self._refine(sig1, sig2)
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
        if any(not 0 <= i < v for i in idx):
            raise DesignFormatError(lineno, "point index out of range")
        if any(x >= y for x, y in zip(idx, idx[1:])):
            raise DesignFormatError(lineno, "block must be strictly increasing")
        blocks.append(idx)
    return IncidenceStructure(v, tuple(blocks))


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
