"""The orthogonal and projective point sets of the constructions.

The design constructions live in the 5-dimensional orthogonal space over
F_3 with Gram matrix diag(1, 1, 1, 1, -1), the one space ``design_space``
returns, and in the projective geometry of F_3^4.  The Gram entry -1 is
forced by direct counting: the form value classes must split the 121
projective points as 40 isotropic, 36 of square type and 45 of nonsquare
type, and the identity form realises the 36/45 split the other way
around.  (Scaling the form does not change the orthogonal group in odd
dimension, so the induced groups are unaffected.)  ``projective_points``
and ``pg_hyperplanes`` take any prime p.  Points are normal-form tuples.

Dot products with a whole point list are taken on packed columns: column j
of the list, reduced mod p, is one int with a little-endian field per point,
the smallest of 1, 2, 4 or 8 bytes that holds dim * (p - 1)^2.  With the
coefficients reduced mod p too, no field of a sum of columns times
coefficients can carry into the next, so one sum, one ``Struct.unpack`` and
one reduction per field give the products with every point.
"""

from __future__ import annotations

import itertools
from operator import mul, not_
from struct import Struct
from typing import Callable, Iterable, NamedTuple

from .exactmath import is_prime

__all__ = [
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


def projective_points(dim: int, p: int) -> list[tuple[int, ...]]:
    """All (p^dim - 1)/(p - 1) points of PG(dim-1, p) as normal-form
    coordinate tuples, in lexicographic order."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not is_prime(p):
        raise ValueError(f"need a prime modulus, got {p}")
    # product yields the vectors in lexicographic order; the normal forms
    # are those whose first nonzero coordinate is 1
    return [
        vec
        for vec in itertools.product(range(p), repeat=dim)
        if next(filter(None, vec), 0) == 1
    ]


def _dot_products(
    points: list[tuple[int, ...]], p: int
) -> Callable[[tuple[int, ...]], Iterable[int]]:
    """The function taking a coefficient vector c to sum(c_i * x_i) % p for
    every point x, in list order, by packed columns (see the module
    docstring).  Shorter points read as zero-padded, as a per-point
    sum(map(mul, c, x)) reads them."""
    columns = list(itertools.zip_longest(*points, fillvalue=0))
    size = next((s for s in (1, 2, 4, 8) if len(columns) * (p - 1) ** 2 < 1 << 8 * s), 0)
    if not size:  # fields past 8 bytes: p > 2^32 / sqrt(dim)
        return lambda c: [sum(map(mul, c, x)) % p for x in points]
    fields = Struct(f"<{len(points)}{'BHIQ'[size.bit_length() - 1]}")
    packed = [int.from_bytes(fields.pack(*map(p.__rmod__, col)), "little") for col in columns]
    unpack, span = fields.unpack, fields.size
    return lambda c: map(
        p.__rmod__, unpack(sum(map(mul, map(p.__rmod__, c), packed)).to_bytes(span, "little"))
    )


class _OrthogonalSpace(NamedTuple):
    """A symmetric nondegenerate Gram matrix over F_p, p odd."""

    p: int
    gram: tuple[tuple[int, ...], ...]

    def _vector(self, x: tuple[int, ...]) -> tuple[int, ...]:
        if len(x) != len(self.gram):
            raise ValueError(f"need a vector of length {len(self.gram)}, got {len(x)}")
        return x

    def gram_row(self, x) -> tuple[int, ...]:
        """x^T G: as G is symmetric, entry i is row i of G dotted with x."""
        xc = self._vector(x)
        return tuple(sum(map(mul, row, xc)) for row in self.gram)

    def bilinear(self, x, y) -> int:
        return sum(map(mul, self.gram_row(x), self._vector(y))) % self.p

    def form(self, x) -> int:
        return self.bilinear(x, x)


# diag(1, 1, 1, 1, -1) over F_3, with -1 stored as 2
_DESIGN_SPACE = _OrthogonalSpace(3, (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 2),
))


def design_space() -> _OrthogonalSpace:
    """The dim-5 orthogonal F_3 space of the constructions: diag(1,1,1,1,-1)."""
    return _DESIGN_SPACE


def classify_point(space: _OrthogonalSpace, x: tuple[int, ...]) -> str:
    """isotropic / square_type / nonsquare_type of the form value.

    Well defined on the projective point: rescaling multiplies the form
    value by a square.
    """
    return _value_class(space.form(x), space.p)


def _value_class(value: int, p: int) -> str:
    if value == 0:
        return ISOTROPIC
    if pow(value, (p - 1) // 2, p) == 1:
        return SQUARE_TYPE
    return NONSQUARE_TYPE


def class_points(point_class: str) -> list[tuple[int, ...]]:
    """The points of one class in the design space, in projective_points(5, 3)
    order.  Designs and reflection actions both index points by this list,
    so their point numberings agree."""
    if point_class not in (ISOTROPIC, SQUARE_TYPE, NONSQUARE_TYPE):
        raise ValueError(f"unknown point class {point_class!r}")
    space = design_space()
    p = space.p
    points = projective_points(5, p)
    wanted = [_value_class(value, p) == point_class for value in range(p)]
    # x^T G x is x dotted with its Gram row, and the packed dot products with
    # the rows of G give every point's Gram row at once
    grams = zip(*map(_dot_products(points, p), space.gram))
    return list(itertools.compress(
        points, [wanted[sum(map(mul, x, gx)) % p] for x, gx in zip(points, grams)]
    ))


def reflection(space: _OrthogonalSpace, v: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The reflection r_v(x) = x - (2 B(x,v)/Q(v)) v as a matrix, for
    anisotropic v, its entries read mod p.  An involutory isometry of the form."""
    p = space.p
    vc = tuple(c % p for c in v)
    gv = space.gram_row(vc)
    qv = space.form(vc)
    if qv == 0:
        raise ValueError("reflection requires an anisotropic vector")
    c = 2 * pow(qv, -1, p) % p
    return tuple(
        tuple(((1 if i == j else 0) - c * vi * gj) % p for j, gj in enumerate(gv))
        for i, vi in enumerate(vc)
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
    dots = _dot_products(points, p)
    every = range(len(points))
    # dual points enumerate the hyperplanes
    return [list(itertools.compress(every, map(not_, dots(h)))) for h in points]
