"""Regular subdivisions: the lower convex hull of lifted lattice points.

Lifting plane lattice points by heights and taking the lower faces of their
convex hull gives a regular subdivision of their convex hull; generic heights
make it a triangulation.  ``tropmirror.charges`` builds its webs from it and
binds the public names of this module too, ``ChargeError`` among them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .lattice import Vec, common_denominator, convex_hull, cross2, dot, vsub
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
    are found by gift wrapping from face to face across the corner-to-corner
    edges of each cell, once per cell, in O(F m) predicates for F cells and
    m points.  Each cell lists every point on its plane, so non-simplicial
    cells keep their interior and edge points, and its gradient is read off
    the plane's integer normal.
    """
    pts = [tuple(int(c) for c in p) for p in points]
    hts = [Q(h) for h in heights]
    if len(pts) != len(hts):
        raise ChargeError("height vector length mismatch")
    if len(pts) < 3:
        raise ChargeError("need at least three points")
    index: dict[Vec, int] = {}
    for i, p in enumerate(pts):
        if p in index:
            raise ChargeError(f"repeated point {p} at indices {index[p]}, {i}")
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
        if len(key) == 3:
            corners = [a, b, next(t for t in key if t != a and t != b)]  # counterclockwise
        else:
            corners = [index[p] for p in convex_hull([pts[t] for t in key])]
        for u, v in zip(corners, corners[1:] + corners[:1]):
            edge = (min(u, v), max(u, v))
            if edge in unmatched:
                unmatched.discard(edge)
            elif not on_hull[u] & on_hull[v]:
                unmatched.add(edge)
                # the neighbour lies right of u -> v, i.e. left of v -> u
                todo.append((v, u))
    ordered = tuple(cells[k] for k in sorted(cells))
    return RegularSubdivision(tuple(pts), tuple(hts), ordered)


def _cell_boundary_edges(sub: RegularSubdivision, cell: SubdivisionCell) -> list[tuple[int, int]]:
    """Boundary edges of a (convex) cell, split at its own lattice points.

    Cell points interior to the cell (possible for degenerate lifts) do not
    bound anything and are skipped; points on a hull edge split it.
    """
    idx = list(cell.indices)
    if len(idx) == 3:
        return [tuple(sorted(p)) for p in itertools.combinations(idx, 2)]
    corners = convex_hull([sub.points[i] for i in idx])
    edges: list[tuple[int, int]] = []
    m = len(corners)
    for t in range(m):
        a, b = corners[t], corners[(t + 1) % m]
        d = vsub(b, a)
        axis = 0 if d[0] != 0 else 1
        members = []
        for i in idx:
            rel = vsub(sub.points[i], a)
            s = Q(rel[axis], d[axis])
            if all(ri == s * di for di, ri in zip(d, rel)) and 0 <= s <= 1:
                members.append((s, i))
        members.sort()
        for (_, i), (_, j) in zip(members, members[1:]):
            edges.append(tuple(sorted((i, j))))
    return edges
