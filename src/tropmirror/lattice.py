"""Exact planar lattice geometry.

Everything in this module is integer/rational arithmetic on tuples: primitive
vectors, unimodular triangle areas, integral cones with at most two generators,
and brute-force intersection of shifted cones over a search box.  No floating
point is used anywhere; rounding would silently break unimodularity tests
downstream, so all predicates are exact.

Vectors and points are plain tuples (``int`` entries for lattice vectors,
``Fraction`` entries for rational points).  Dimensions 1, 2 and 3 occur.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence

from .record import frozen

Vec = tuple[int, ...]
QPoint = tuple[Fraction, ...]


class LatticeError(ValueError):
    """Raised on malformed lattice-geometric input."""


def vadd(a: Sequence, b: Sequence) -> tuple:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Sequence, b: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: Sequence) -> tuple:
    return tuple(-x for x in a)


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b, strict=True))


def cross2(a: Sequence, b: Sequence):
    """Signed 2x2 determinant a_x b_y - a_y b_x."""
    return a[0] * b[1] - a[1] * b[0]


def rot_minus90(a: Sequence) -> tuple:
    """Clockwise quarter turn (x, y) -> (y, -x)."""
    return (a[1], -a[0])


def is_zero(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def content(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v: Sequence[int]) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries.

    The result has entry-gcd 1 and the same direction (sign preserved).
    """
    g = content(v)
    if g == 0:
        raise LatticeError("zero has no primitive representative")
    return tuple(x // g for x in v)


def primitive_q(v: Sequence[Fraction]) -> Vec:
    """Primitive integer vector parallel to a nonzero rational vector."""
    if all(x == 0 for x in v):
        raise LatticeError("zero has no primitive representative")
    denom = 1
    for x in v:
        denom = denom * Fraction(x).denominator // gcd(denom, Fraction(x).denominator)
    ints = [int(Fraction(x) * denom) for x in v]
    return primitive(ints)


def is_primitive(v: Sequence[int]) -> bool:
    return not is_zero(v) and content(v) == 1


def lattice_triangle_area(a: Sequence, b: Sequence, c: Sequence) -> Fraction:
    """Exact area |det(b-a, c-a)| / 2 of a planar triangle.

    Degenerate (collinear) triples return 0.
    """
    if not (len(a) == len(b) == len(c) == 2):
        raise LatticeError("triangle area requires dimension 2")
    return Fraction(abs(cross2(vsub(b, a), vsub(c, a))), 2)


def convex_hull(points: Sequence[Sequence]) -> list[tuple]:
    """Strict convex hull corners, counterclockwise from the lex-least (monotone chain).

    Points on a hull edge but not at a corner are dropped; two or fewer
    distinct points are returned sorted.
    """
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross2(vsub(out[-1], out[-2]), vsub(p, out[-2])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def coords_from_json(value, parse=Fraction) -> tuple:
    """The coordinates of a point read from JSON, which must be a list.

    A string is rejected instead of being read character by character.
    """
    if not isinstance(value, list):
        raise TypeError(f"expected a list of coordinates, got {value!r}")
    return tuple(parse(c) for c in value)


class ConeKind(Enum):
    STRICT = "strict"
    HALF_PLANE = "half-plane"
    FULL_PLANE = "full-plane"


@frozen
class IntegralCone:
    """A shifted integral cone with at most two generators.

    ``strict`` cones carry one or two primitive generators spanning a salient
    cone.  ``half-plane`` cones carry exactly two generators: the boundary
    direction and a primitive vector on the half-plane side; membership is a
    sign test.  ``full-plane`` cones carry no generators and contain
    everything.  Wider generator sets are rejected at construction: trivalence
    of the diagrams makes every arising cone at most 2-generated.
    """

    apex: Vec
    generators: tuple[Vec, ...]
    kind: ConeKind = ConeKind.STRICT

    def __post_init__(self):
        gens = tuple(tuple(int(x) for x in g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "apex", tuple(int(x) for x in self.apex))
        if len(gens) > 2:
            raise LatticeError("cones store at most 2 generators")
        for g in gens:
            if not is_primitive(g):
                raise LatticeError(f"cone generator {g} is not primitive")
            if len(g) != len(self.apex):
                raise LatticeError("generator/apex dimension mismatch")
        if self.kind is ConeKind.STRICT:
            if not gens:
                raise LatticeError("strict cone needs at least one generator")
            if len(gens) == 2 and len(self.apex) == 2 and cross2(gens[0], gens[1]) == 0:
                raise LatticeError("strict cone generators must be independent")
        elif self.kind is ConeKind.HALF_PLANE:
            if len(gens) != 2:
                raise LatticeError("half-plane cone needs boundary and side generators")
            if cross2(gens[0], gens[1]) == 0:
                raise LatticeError("half-plane side generator lies on the boundary")
        elif self.kind is ConeKind.FULL_PLANE:
            if gens:
                raise LatticeError("full-plane cone carries no generators")

    @property
    def dim(self) -> int:
        return len(self.apex)


def cone_contains(cone: IntegralCone, p: Sequence[int]) -> bool:
    """Exact membership of a lattice point in a shifted integral cone.

    Strict cones test a non-negative rational combination (the point itself is
    a lattice point, so this is membership in the saturated cone); half-plane
    and full-plane kinds use sign tests.
    """
    p = tuple(int(x) for x in p)
    if len(p) != cone.dim:
        raise LatticeError("point/cone dimension mismatch")
    d = vsub(p, cone.apex)
    if cone.kind is ConeKind.FULL_PLANE:
        return True
    if cone.kind is ConeKind.HALF_PLANE:
        boundary, side = cone.generators
        s = cross2(boundary, d)
        return s == 0 or (s > 0) == (cross2(boundary, side) > 0)
    gens = cone.generators
    if len(gens) == 1:
        g = gens[0]
        # d = k*g with k >= 0
        if cone.dim == 2 and cross2(g, d) != 0:
            return False
        ratios = {Fraction(di, gi) for di, gi in zip(d, g) if gi != 0}
        if len(ratios) != 1:
            return is_zero(d)
        k = ratios.pop()
        return k >= 0 and all(di == k * gi for di, gi in zip(d, g))
    g1, g2 = gens
    det = cross2(g1, g2)
    a = Fraction(cross2(d, g2), det)
    b = Fraction(cross2(g1, d), det)
    return a >= 0 and b >= 0


@frozen
class Box:
    """Axis-aligned product of closed rational intervals."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        ivs = tuple((Fraction(lo), Fraction(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for lo, hi in ivs:
            if lo > hi:
                raise LatticeError("box interval has lower > upper")

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def corners(self) -> Iterator[QPoint]:
        for picks in itertools.product(*self.intervals):
            yield tuple(picks)

    def lattice_points(self) -> Iterator[Vec]:
        ranges = []
        for lo, hi in self.intervals:
            start = -((-lo.numerator) // lo.denominator)  # ceil(lo)
            stop = hi.numerator // hi.denominator  # floor(hi)
            ranges.append(range(start, stop + 1))
        for p in itertools.product(*ranges):
            yield p


def box(*intervals) -> Box:
    return Box(tuple((Fraction(lo), Fraction(hi)) for lo, hi in intervals))


def intersect_shifted_cones(cones: Sequence[IntegralCone], search: Box) -> set[Vec]:
    """All lattice points of ``search`` lying in every cone, by brute force.

    This is deliberately an enumeration over the box: it serves as the
    independent route against which the dual-graph reconstruction is checked.
    """
    cones = list(cones)
    if not cones:
        raise LatticeError("empty cone list")
    dims = {c.dim for c in cones}
    if len(dims) != 1:
        raise LatticeError("cones must share a dimension")
    if search.dim != dims.pop():
        raise LatticeError("search box dimension mismatch")
    return {p for p in search.lattice_points() if all(cone_contains(c, p) for c in cones)}
