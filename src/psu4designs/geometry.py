"""Prime-field linear algebra and orthogonal/projective point sets.

The design constructions live in the 5-dimensional orthogonal space over
F_3 with Gram matrix diag(1, 1, 1, 1, -1) and in the projective geometry
of F_3^4.  The Gram entry -1 is forced by direct counting: the form value
classes must split the 121 projective points as 40 isotropic, 36 of
square type and 45 of nonsquare type, and the identity form realises the
36/45 split the other way around.  (Scaling the form does not change the
orthogonal group in odd dimension, so the induced groups are unaffected.)

Characteristic 2 is excluded from quadratic spaces; quadratic forms over
F_2 need separate machinery none of the constructions use.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .exactmath import is_prime

__all__ = [
    "PrimeField",
    "ProjectivePoint",
    "QuadraticSpace",
    "diagonal_space",
    "design_space",
    "projective_points",
    "classify_point",
    "class_points",
    "reflection",
    "pg_hyperplanes",
    "ISOTROPIC",
    "SQUARE_TYPE",
    "NONSQUARE_TYPE",
]

ISOTROPIC = "isotropic"
SQUARE_TYPE = "square_type"
NONSQUARE_TYPE = "nonsquare_type"


class _PrimeField(NamedTuple):
    p: int


class PrimeField(_PrimeField):
    """F_p for prime p <= 257."""

    __slots__ = ()

    def __new__(cls, p: int) -> PrimeField:
        if not is_prime(p) or p > 257:
            raise ValueError(f"need a prime modulus <= 257, got {p}")
        return super().__new__(cls, p)

    def inv(self, x: int) -> int:
        if x % self.p == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(x, -1, self.p)


def _normalize(vec: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1 (canonical representative)."""
    vec = tuple(c % p for c in vec)
    for c in vec:
        if c:
            inv = pow(c, -1, p)
            return tuple(x * inv % p for x in vec)
    raise ValueError("zero vector has no projective normal form")


class ProjectivePoint(NamedTuple):
    """A 1-dimensional subspace, stored by its normal-form representative."""

    coords: tuple[int, ...]

    @classmethod
    def from_vector(cls, vec: tuple[int, ...], p: int) -> "ProjectivePoint":
        return cls(_normalize(vec, p))

    def __str__(self) -> str:
        return "(" + ":".join(map(str, self.coords)) + ")"


def projective_points(dim: int, p: int) -> list[ProjectivePoint]:
    """All (p^dim - 1)/(p - 1) points of PG(dim-1, p), in lexicographic
    normal-form order."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not is_prime(p):
        raise ValueError(f"need a prime modulus, got {p}")
    # product yields the vectors in lexicographic order; the normal forms
    # are those whose first nonzero coordinate is 1
    return [
        ProjectivePoint(vec)
        for vec in itertools.product(range(p), repeat=dim)
        if next(filter(None, vec), 0) == 1
    ]


class _QuadraticSpace(NamedTuple):
    field: PrimeField
    dim: int
    gram: tuple[tuple[int, ...], ...]


class QuadraticSpace(_QuadraticSpace):
    """A nondegenerate symmetric bilinear form over F_p, p odd."""

    __slots__ = ()

    def __new__(
        cls, field: PrimeField, dim: int, gram: tuple[tuple[int, ...], ...]
    ) -> QuadraticSpace:
        p = field.p
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        if len(gram) != dim or any(len(row) != dim for row in gram):
            raise ValueError("Gram matrix shape does not match dim")
        for i in range(dim):
            for j in range(dim):
                if gram[i][j] % p != gram[j][i] % p:
                    raise ValueError("Gram matrix must be symmetric")
        self = super().__new__(cls, field, dim, gram)
        if self._det() % p == 0:
            raise ValueError("Gram matrix is degenerate")
        return self

    def _det(self) -> int:
        # Gaussian elimination mod p
        p = self.field.p
        m = [[x % p for x in row] for row in self.gram]
        det = 1
        for col in range(self.dim):
            pivot = next((r for r in range(col, self.dim) if m[r][col]), None)
            if pivot is None:
                return 0
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det % p
            det = det * m[col][col] % p
            inv = pow(m[col][col], -1, p)
            for r in range(col + 1, self.dim):
                factor = m[r][col] * inv % p
                if factor:
                    m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[col])]
        return det % p

    def bilinear(self, x, y) -> int:
        gram = self.gram
        xc = x.coords if isinstance(x, ProjectivePoint) else x
        yc = y.coords if isinstance(y, ProjectivePoint) else y
        total = 0
        for i, xi in enumerate(xc):
            if xi:
                row = gram[i]
                total += xi * sum(row[j] * yj for j, yj in enumerate(yc) if yj)
        return total % self.field.p

    def form(self, x) -> int:
        return self.bilinear(x, x)


def diagonal_space(p: int, entries: tuple[int, ...]) -> QuadraticSpace:
    """The space with Gram matrix diag(entries)."""
    dim = len(entries)
    gram = tuple(
        tuple(entries[i] % p if i == j else 0 for j in range(dim))
        for i in range(dim)
    )
    return QuadraticSpace(PrimeField(p), dim, gram)


def design_space() -> QuadraticSpace:
    """The dim-5 orthogonal F_3 space of the constructions: diag(1,1,1,1,-1)."""
    return diagonal_space(3, (1, 1, 1, 1, -1))


def classify_point(space: QuadraticSpace, x: ProjectivePoint) -> str:
    """isotropic / square_type / nonsquare_type of the form value.

    Well defined on the projective point: rescaling multiplies the form
    value by a square.
    """
    p = space.field.p
    value = space.form(x)
    if value == 0:
        return ISOTROPIC
    if pow(value, (p - 1) // 2, p) == 1:
        return SQUARE_TYPE
    return NONSQUARE_TYPE


def class_points(point_class: str) -> list[ProjectivePoint]:
    """The points of one class in the design space, in projective_points(5, 3)
    order.  Designs and reflection actions both index points by this list,
    so their point numberings agree."""
    space = design_space()
    return [
        pt for pt in projective_points(5, 3) if classify_point(space, pt) == point_class
    ]


def reflection(space: QuadraticSpace, v) -> tuple[tuple[int, ...], ...]:
    """The reflection r_v(x) = x - (2 B(x,v)/Q(v)) v as a matrix, for
    anisotropic v.  An involutory isometry of the form."""
    p = space.field.p
    vc = v.coords if isinstance(v, ProjectivePoint) else tuple(c % p for c in v)
    qv = space.form(vc)
    if qv == 0:
        raise ValueError("reflection requires an anisotropic vector")
    c = 2 * space.field.inv(qv) % p
    gv = [sum(space.gram[i][j] * vc[j] for j in range(space.dim)) % p for i in range(space.dim)]
    return tuple(
        tuple(
            ((1 if i == j else 0) - c * vc[i] * gv[j]) % p
            for j in range(space.dim)
        )
        for i in range(space.dim)
    )


def pg_hyperplanes(dim: int, p: int) -> list[list[int]]:
    """The hyperplanes of the projective geometry of F_p^dim, each as the
    sorted index list of its points in projective_points(dim, p) order.

    dim is the vector-space dimension: dim=4, p=3 gives the 40 hyperplanes
    of 13 points each; dim=3, p=2 gives the Fano plane.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    points = projective_points(dim, p)
    blocks = []
    for h in points:  # dual points enumerate the hyperplanes
        hc = h.coords
        block = [
            i
            for i, pt in enumerate(points)
            if sum(a * b for a, b in zip(hc, pt.coords)) % p == 0
        ]
        blocks.append(block)
    return blocks
