"""Regular subdivisions: the lower convex hull of lifted lattice points.

Lifting plane lattice points by heights and taking the lower faces of their
convex hull gives a regular subdivision of their convex hull; generic heights
make it a triangulation.  ``cell_ring`` walks a cell's boundary
counterclockwise, once per cell: the wrap matches cells across its sides, and
``tropmirror.charges`` reads the web's edges and rays off it.  That module
binds the public names of this one too, ``ChargeError`` among them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .lattice import Vec, as_point, common_denominator, convex_hull, cross2, dot, read_int, shown_point, vsub
from .record import frozen

Q = Fraction


class ChargeError(ValueError):
    pass


@frozen
class SubdivisionCell:
    indices: tuple[int, ...]  # point indices with equality on the lower hull
    gradient: tuple[Fraction, Fraction]


@frozen
class RegularSubdivision:
    points: tuple[Vec, ...]
    heights: tuple[Fraction, ...]
    cells: tuple[SubdivisionCell, ...]

    def is_simplicial(self) -> bool:
        return all(len(c.indices) == 3 for c in self.cells)


def _wrap(lifted: Sequence[Vec], a: int, b: int) -> tuple[Vec, tuple[int, ...]]:
    """The lower cell left of the lifted lower edge a -> b, as (normal, points).

    Candidates are the points strictly left of a -> b in the plane; there is
    one, as the caller never wraps a boundary edge from outside.  Rotating a
    plane about the lifted edge orders them totally, so one scan that keeps
    the candidate with no other candidate below its plane finds the next
    lower face (gift wrapping).  The plane of candidate c has the normal
    (b - a) x (c - a), whose last entry is positive, and <normal, p - a> is
    positive above the plane, zero on it and negative below.  The cell's
    points are the candidates tied with the winner and the points of the
    edge's own line that lie on its plane (a and b among them).
    """
    ax, ay, az = lifted[a]
    ex, ey, ez = lifted[b][0] - ax, lifted[b][1] - ay, lifted[b][2] - az
    normal = None
    ties: list[int] = []
    line: list[int] = []
    for t, (x, y, z) in enumerate(lifted):
        x, y, z = x - ax, y - ay, z - az
        side = ex * y - ey * x
        if side <= 0:
            if side == 0:
                line.append(t)
            continue
        if normal is not None:
            height = normal[0] * x + normal[1] * y + normal[2] * z
            if height > 0:
                continue
            if height == 0:
                ties.append(t)
                continue
        normal = (ey * z - ez * y, ez * x - ex * z, side)
        ties = [t]
    n0, n1, n2 = normal
    for t in line:
        x, y, z = lifted[t]
        if n0 * (x - ax) + n1 * (y - ay) + n2 * (z - az) == 0:
            ties.append(t)
    return normal, tuple(sorted(ties))


def regular_subdivision(points: Sequence[Vec], heights: Sequence) -> RegularSubdivision:
    """Lower convex hull subdivision of lifted points (exact rationals).

    The cells are the lower faces of the points lifted by their heights
    (scaled by the lcm of the height denominators, so every predicate is an
    integer determinant; an lcm of more than DIGITS digits is refused).  They
    are found by gift wrapping from face to face across the sides of each
    cell's ring (``cell_ring``), once per cell, in O(F m) predicates for F
    cells and m points.  Each cell lists every point on its plane, so
    non-simplicial cells keep their interior and edge points, and its
    gradient is read off the plane's integer normal.
    """
    pts = [as_point(p, 2, "point", ChargeError, read_int) for p in points]
    hts = as_point(heights, len(pts), "height", ChargeError)
    if len(pts) < 3:
        raise ChargeError("need at least three points")
    index: dict[Vec, int] = {}
    for i, p in enumerate(pts):
        if p in index:
            raise ChargeError(f"repeated point {shown_point(p)} at indices {index[p]}, {i}")
        index[p] = i
    hull = convex_hull(pts)
    if len(hull) < 3:
        raise ChargeError("point configuration is degenerate (all collinear)")
    scale = common_denominator(hts, "heights", ChargeError)
    lifted = [(x, y, h.numerator * (scale // h.denominator)) for (x, y), h in zip(pts, hts)]
    # bit i of on_hull[t] is set iff point t lies on the line of hull edge i;
    # a cell edge with both ends on one such line bounds the polygon
    on_hull = [0] * len(pts)
    for i, (hx, hy) in enumerate(hull):
        dx, dy = hull[i + 1 - len(hull)][0] - hx, hull[i + 1 - len(hull)][1] - hy
        for t, (x, y) in enumerate(pts):
            if dx * (y - hy) == dy * (x - hx):
                on_hull[t] |= 1 << i

    # start: the lex-least point is a hull corner; the point of least slope
    # from it along the counterclockwise hull edge spans a lower edge (any
    # two such points span the same lifted line)
    p0 = index[hull[0]]
    d = vsub(hull[1], hull[0])
    on_edge = [t for t in range(len(pts)) if t != p0 and cross2(d, vsub(pts[t], pts[p0])) == 0]

    def slope(t: int) -> Fraction:
        return Q(lifted[t][2] - lifted[p0][2], dot(d, vsub(pts[t], pts[p0])))

    cells: dict[tuple[int, ...], SubdivisionCell] = {}
    unmatched: set[tuple[int, int]] = set()  # cell edges with no known cell across
    todo = [(p0, min(on_edge, key=slope))]
    while todo:
        a, b = todo.pop()
        if cells and (min(a, b), max(a, b)) not in unmatched:
            continue  # the cell across was found after this edge was queued
        (n0, n1, n2), key = _wrap(lifted, a, b)
        den = n2 * scale
        cells[key] = SubdivisionCell(key, (Q(-n0, den), Q(-n1, den)))
        # adjacent lower faces share their whole common side and every point
        # on it, so split sides match point to point
        ring = cell_ring(pts, key)
        for u, v in zip(ring, ring[1:] + ring[:1]):
            edge = (min(u, v), max(u, v))
            if edge in unmatched:
                unmatched.discard(edge)
            elif not on_hull[u] & on_hull[v]:
                unmatched.add(edge)
                # the neighbour lies right of u -> v, i.e. left of v -> u
                todo.append((v, u))
    ordered = tuple(cells[k] for k in sorted(cells))
    return RegularSubdivision(tuple(pts), hts, ordered)


def cell_ring(points: Sequence[Vec], indices: Sequence[int]) -> list[int]:
    """The boundary points of a convex cell, counterclockwise.

    A cell point on a side between two corners splits that side, and points
    inside the cell are left out.  A triangle, most cells, takes one
    orientation test; a larger cell walks the sides of its corner hull, each
    from its first corner u along d = v - u, collecting the points p with
    cross2(d, p - u) = 0 and <p - u, d> < <d, d>, in that order.  The side's
    line supports the convex cell, so every cell point on it lies on [u, v]
    and <p - u, d> >= 0 needs no test.
    """
    if len(indices) == 3:
        a, b, c = indices
        (ax, ay), (bx, by), (cx, cy) = points[a], points[b], points[c]
        return [a, b, c] if (bx - ax) * (cy - ay) > (by - ay) * (cx - ax) else [a, c, b]
    corners = convex_hull([points[t] for t in indices])
    ring = []
    for u, v in zip(corners, corners[1:] + corners[:1]):
        d = vsub(v, u)
        on_line = sorted((dot(vsub(points[t], u), d), t) for t in indices if cross2(d, vsub(points[t], u)) == 0)
        ring.extend(t for s, t in on_line if s < dot(d, d))
    return ring
