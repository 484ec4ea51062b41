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
from operator import add
from struct import calcsize
from sys import byteorder
from typing import NamedTuple, Optional, Union

from . import geometry
from .geometry import ISOTROPIC, NONSQUARE_TYPE, SQUARE_TYPE
from .exactmath import DesignParams

__all__ = [
    "IncidenceStructure",
    "VerificationFailure",
    "VerifiedDesign",
    "DesignFormatError",
    "KINDS",
    "KIND_POINT_CLASS",
    "build",
    "verify_symmetric",
    "complement",
    "flags",
    "find_isomorphism",
    "is_isomorphism",
    "relabel",
    "format_design",
    "parse_design",
    "write_design",
    "read_design",
]

KINDS = ("menon36", "minus45", "higman40", "pg33")

KIND_POINT_CLASS = {
    "menon36": SQUARE_TYPE,
    "minus45": NONSQUARE_TYPE,
    "higman40": ISOTROPIC,
}


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

    def block_masks(self) -> list[int]:
        """Per block, the bitmask of its points."""
        out = []
        for block in self.blocks:
            m = 0
            for i in block:
                m |= 1 << i
            out.append(m)
        return out


class VerificationFailure(NamedTuple):
    """The first violated symmetric-design axiom, with a witness."""

    axiom: str
    witness: tuple

    def __str__(self) -> str:
        return f"{self.axiom} violated at {self.witness}"


class VerifiedDesign(NamedTuple):
    """An incidence structure paired with its checked parameters."""

    structure: "IncidenceStructure"
    params: DesignParams

    @classmethod
    def of(cls, structure: "IncidenceStructure") -> "VerifiedDesign":
        result = verify_symmetric(structure)
        if isinstance(result, VerificationFailure):
            raise ValueError(str(result))
        return cls(structure, result)


def build(kind: str) -> IncidenceStructure:
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


def verify_symmetric(
    design: IncidenceStructure,
) -> Union[DesignParams, VerificationFailure]:
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
    bmasks = design.block_masks()
    for i in range(v):
        for j in range(i + 1, v):
            common = (bmasks[i] & bmasks[j]).bit_count()
            if common != lam:
                return VerificationFailure("block_pair", (i, j, common, lam))
    if not 2 < k < v - 1:
        return VerificationFailure("nontriviality", (v, k))
    return DesignParams(v, k, lam)


def complement(design: IncidenceStructure) -> IncidenceStructure:
    """Replace every block by its complement in the point set."""
    full = set(range(design.v))
    blocks = tuple(tuple(sorted(full - set(b))) for b in design.blocks)
    return IncidenceStructure(design.v, blocks)


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
# Plain 1-WL refinement stalls on these designs (the rank-3 partitions are
# equitable), so each individualisation also refines every vertex by its
# triple counts against the anchor set picked so far, which discretises
# the colouring after two or three anchors.
#
# The profiles are read from packed integers rather than counted pair by
# pair.  Each block becomes one big int whose field (y, z) of a v x v
# matrix is 1 when y and z both lie in the block; summed over the blocks
# through x, field (y, z) is |B(x) & B(y) & B(z)|.  A field must hold the
# largest replication number, so its width comes from the input, never a
# fixed byte: with one-byte fields, 300 copies of a block read as 44.  The
# b block products are kept for the whole call, b * v^2 fields.
# ---------------------------------------------------------------------------


def _pair_profiles(design: IncidenceStructure) -> list[list[tuple]]:
    """Per point pair (x, y), (lambda_xy, sorted histogram of the triple
    counts over z != x, y); the diagonal is (-1, ()).

    Memory: the b outer products are held at once, b * v^2 fields of the
    smallest of 1, 2, 4, 8 bytes that holds the largest replication number
    (91 kB for b = v = 45); building them per x instead gives back most of
    the speed.
    """
    n = design.v
    through: list[list[int]] = [[] for _ in range(n)]
    for b, block in enumerate(design.blocks):
        for i in block:
            through[i].append(b)
    most = max(map(len, through), default=0)
    fmt = next(f for f in "BHIQ" if most < 1 << 8 * calcsize(f))
    size = calcsize(fmt)
    cols = [1 << 8 * size * z for z in range(n)]
    rows = [1 << 8 * size * n * y for y in range(n)]
    outer = [
        sum(map(rows.__getitem__, block)) * sum(map(cols.__getitem__, block))
        for block in design.blocks
    ]
    memo: dict[tuple, tuple] = {}
    prof: list[list[Optional[tuple]]] = [[None] * n for _ in range(n)]
    for x in range(n):
        prof[x][x] = (-1, ())  # diagonal marker, below any real profile
        triples = sum(map(outer.__getitem__, through[x])).to_bytes(size * n * n, byteorder)
        fields = memoryview(triples).cast(fmt)
        for y in range(x + 1, n):
            # row y of x's matrix: fields x and y are lambda_xy itself, the
            # two entries the histogram leaves out
            row = fields[y * n:(y + 1) * n]
            lam = row[x]
            seen = (lam, tuple(sorted(row)))
            key = memo.get(seen)
            if key is None:
                hist = Counter(row)
                hist[lam] -= 2
                if not hist[lam]:
                    del hist[lam]
                key = memo[seen] = (lam, tuple(sorted(hist.items())))
            prof[x][y] = prof[y][x] = key
    return prof


class _IsoSearch:
    """Joint individualisation-refinement over two equal-size designs."""

    def __init__(self, d1: IncidenceStructure, d2: IncidenceStructure) -> None:
        self.n = d1.v
        self.d1 = d1
        self.d2 = d2
        self.masks1 = d1.point_masks()
        self.masks2 = d2.point_masks()
        prof1 = _pair_profiles(d1)
        prof2 = _pair_profiles(d2)
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

    def _refine(
        self, col1: list[int], col2: list[int]
    ) -> Optional[tuple[list[int], list[int]]]:
        # A point's signature is the multiset of codes e * n + c over all y,
        # e the edge id of (x, y) and c the colour of y.  As c < n, the codes
        # order exactly as the (e, c) pairs.  Id 0 is the diagonal's alone
        # (its (-1, ()) sorts below every real profile), so y = x adds the
        # leading item (col[x], 1) and nothing else: two signatures are equal,
        # and sort, as the pairs (col[x], {(e, c) over y != x}) do.
        # A discrete colouring is returned as it is.  A further round could
        # not change its ids, only fail; and if it fails, the bijection the
        # colouring fixes maps some pair to a pair with another edge id, so
        # it is no isomorphism and _extract rejects the same branch.
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


def find_isomorphism(
    d1: IncidenceStructure, d2: IncidenceStructure
) -> Optional[list[int]]:
    """A point bijection mapping blocks onto blocks, or None.

    Any witness returned has passed ``is_isomorphism``.
    """
    n = d1.v
    if n != d2.v or len(d1.blocks) != len(d2.blocks):
        return None
    if sorted(map(len, d1.blocks)) != sorted(map(len, d2.blocks)):
        return None
    searcher = _IsoSearch(d1, d2)
    start = searcher._refine([0] * n, [0] * n)
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


def parse_design(text: str) -> IncidenceStructure:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DesignFormatError(1, "empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise DesignFormatError(1, "header must be two integers: v b")
    try:
        v, b = int(header[0]), int(header[1])
    except ValueError:
        raise DesignFormatError(1, "header must be two integers: v b") from None
    if v < 1 or b < 0:
        raise DesignFormatError(1, f"bad sizes v={v} b={b}")
    if len(lines) - 1 != b:
        # point at the first missing or first surplus line
        bad = len(lines) + 1 if len(lines) - 1 < b else b + 2
        raise DesignFormatError(bad, f"expected {b} block lines, found {len(lines) - 1}")
    blocks = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            idx = tuple(int(tok) for tok in line.split())
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
