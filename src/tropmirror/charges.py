"""Toric Calabi-Yau webs from GLSM charge matrices.

A charge matrix is k integer rows of length n+k, each summing to zero (the
special-unitary condition).  Its integer kernel has rank n; because the
all-ones vector lies in the kernel, the n+k columns of a kernel basis can be
normalized by a unimodular change of coordinates to have last coordinate 1,
yielding n+k lattice points in the plane (n = 3 throughout).  Lifting the
points by user-supplied heights and taking the lower convex hull produces a
regular subdivision; generic heights make it a triangulation.  Dualizing (one
web vertex per cell at minus the lifting gradient, edges orthogonal to the
shared cell edges, rays opposite the outward boundary normals) gives the
tropical web.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Sequence

from .diagram import TropicalDiagram
from .lattice import Vec, convex_hull, cross2, dot, primitive, vneg, vsub
from .record import frozen

Q = Fraction


class ChargeError(ValueError):
    pass


@frozen
class ChargeMatrix:
    rows: tuple[tuple[int, ...], ...]
    width: int  # n + k; explicit so the empty matrix (k = 0) keeps its size

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        for r in rows:
            if len(r) != self.width:
                raise ChargeError("charge row length mismatch")
            if sum(r) != 0:
                raise ChargeError(f"charge row {r} does not sum to zero")

    @property
    def k(self) -> int:
        return len(self.rows)


def integer_kernel_basis(rows: Sequence[Sequence[int]], width: int) -> list[Vec]:
    """Basis of the integer kernel lattice {x : A x = 0}, by column reduction.

    Column operations (tracked in a unimodular matrix) bring A to column
    echelon form; the transform columns over the zero columns are a basis of
    the saturated kernel.
    """
    k = len(rows)
    a = [[int(x) for x in r] for r in rows]
    v = [[1 if i == j else 0 for j in range(width)] for i in range(width)]

    def colop_sub(dst: int, src: int, q: int):
        for r in range(k):
            a[r][dst] -= q * a[r][src]
        for r in range(width):
            v[r][dst] -= q * v[r][src]

    def colswap(i: int, j: int):
        for r in range(k):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(width):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    col = 0
    for row in range(k):
        while True:
            nz = [j for j in range(col, width) if a[row][j] != 0]
            if not nz:
                break
            if len(nz) == 1:
                colswap(col, nz[0])
                col += 1
                break
            nz.sort(key=lambda j: abs(a[row][j]))
            piv, other = nz[0], nz[1]
            qout = a[row][other] // a[row][piv]
            colop_sub(other, piv, qout)
    rank = col
    if rank < k:
        raise ChargeError("charge matrix is rank-deficient")
    return [tuple(v[r][j] for r in range(width)) for j in range(rank, width)]


def _solve_integer(mat: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[int]:
    """Solve an overdetermined consistent rational system, requiring an integer answer."""
    m = [list(row) + [r] for row, r in zip(mat, rhs)]
    rows, cols = len(m), len(mat[0])
    pr = 0
    pivots = []
    for pc in range(cols):
        pivot = next((r for r in range(pr, rows) if m[r][pc] != 0), None)
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        m[pr] = [x / m[pr][pc] for x in m[pr]]
        for r in range(rows):
            if r != pr and m[r][pc] != 0:
                factor = m[r][pc]
                m[r] = [x - factor * y for x, y in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    sol = [Q(0)] * cols
    for r, pc in enumerate(pivots):
        sol[pc] = m[r][-1]
    for r in range(pr, rows):
        if m[r][-1] != 0:
            raise ChargeError("inconsistent linear system")
    out = []
    for x in sol:
        if x.denominator != 1:
            raise ChargeError("expected an integral solution")
        out.append(int(x))
    return out


def _invert_unimodular(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(mat)
    aug = [[Q(x) for x in row] + [Q(1) if i == j else Q(0) for j in range(n)] for i, row in enumerate(mat)]
    for pc in range(n):
        pivot = next(r for r in range(pc, n) if aug[r][pc] != 0)
        aug[pc], aug[pivot] = aug[pivot], aug[pc]
        aug[pc] = [x / aug[pc][pc] for x in aug[pc]]
        for r in range(n):
            if r != pc and aug[r][pc] != 0:
                factor = aug[r][pc]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[pc])]
    inv = [[aug[i][n + j] for j in range(n)] for i in range(n)]
    out = [[int(x) for x in row] for row in inv]
    if any(Q(o) != x for row, orow in zip(inv, out) for x, o in zip(row, orow)):
        raise ChargeError("matrix is not unimodular")
    return out


def kernel_points(q: ChargeMatrix) -> list[Vec]:
    """The n+k lattice points of the dual polygon, in charge-coordinate order."""
    basis = integer_kernel_basis(q.rows, q.width)
    n = len(basis)
    if n != 3:
        raise ChargeError(f"charge matrix has corank {n}, need 3")
    # theta with sum_j theta_j basis_j = all-ones: exists and is integral
    # because the rows sum to zero and the basis spans the saturated kernel
    mat = [[Q(basis[j][i]) for j in range(n)] for i in range(q.width)]
    theta = _solve_integer(mat, [Q(1)] * q.width)
    # unimodular W with theta * W = (1, 0, ..., 0); then W^{-1} has theta as
    # its first row and the new last coordinate of each point is <theta, v> = 1
    theta_row = [list(theta)]
    w_cols = integer_kernel_basis(theta_row, n)  # kernel of theta, rank n-1
    # first column: any integer vector with <theta, c> = 1 (extended gcd chain)
    c = _extended_gcd_vector(theta)
    w = [[c[i]] + [w_cols[j][i] for j in range(n - 1)] for i in range(n)]
    w_inv = _invert_unimodular(w)
    points = []
    for i in range(q.width):
        vcol = [basis[j][i] for j in range(n)]
        coords = [sum(w_inv[r][s] * vcol[s] for s in range(n)) for r in range(n)]
        if coords[0] != 1:
            raise ChargeError("normalization to last coordinate 1 failed")
        points.append((coords[1], coords[2]))
    if len(set(points)) != len(points):
        raise ChargeError("charge data produces repeated lattice points")
    return points


def _extended_gcd_vector(theta: Sequence[int]) -> list[int]:
    """An integer vector c with <theta, c> = gcd(theta) = 1."""
    c = [0] * len(theta)
    g = 0
    gvec = [0] * len(theta)
    for i, t in enumerate(theta):
        if t == 0:
            continue
        if g == 0:
            g = abs(t)
            gvec = [0] * len(theta)
            gvec[i] = 1 if t > 0 else -1
            continue
        old_g, x, y = _egcd(g, t)
        gvec = [x * v for v in gvec]
        gvec[i] += y
        g = old_g
    if g != 1:
        raise ChargeError("theta is not primitive")
    return gvec


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    g, x, y = _egcd(b, a % b)
    return (g, y, x - (a // b) * y)


@frozen
class SubdivisionCell:
    indices: tuple[int, ...]  # point indices with equality on the lower hull
    gradient: tuple[Fraction, Fraction]
    constant: Fraction


@frozen
class RegularSubdivision:
    points: tuple[Vec, ...]
    heights: tuple[Fraction, ...]
    cells: tuple[SubdivisionCell, ...]

    def is_simplicial(self) -> bool:
        return all(len(c.indices) == 3 for c in self.cells)

    def is_unimodular(self) -> bool:
        if not self.is_simplicial():
            return False
        for c in self.cells:
            a, b, d = (self.points[i] for i in c.indices)
            if abs(cross2(vsub(b, a), vsub(d, a))) != 1:
                return False
        return True

    def used_points(self) -> set[int]:
        return {i for c in self.cells for i in c.indices}


def _orient3(a: Sequence[int], b: Sequence[int], c: Sequence[int], d: Sequence[int]) -> int:
    """det(b - a, c - a, d - a) of integer lifted points (x, y, z).

    It equals cross2 of (b - a, c - a) in the plane times the height of d
    above the plane through a, b, c: for a counterclockwise a, b, c it is
    positive above the plane, zero on it and negative below.
    """
    b0, b1, b2 = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    c0, c1, c2 = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    d0, d1, d2 = d[0] - a[0], d[1] - a[1], d[2] - a[2]
    return b0 * (c1 * d2 - c2 * d1) - b1 * (c0 * d2 - c2 * d0) + b2 * (c0 * d1 - c1 * d0)


def _wrap(lifted: Sequence[Vec], a: int, b: int) -> int | None:
    """The point whose plane through a, b is lowest left of a -> b, or None.

    Candidates are the points strictly left of a -> b in the plane.  Rotating
    a plane about the lifted edge orders them totally, so one scan that keeps
    the candidate with no other candidate below its plane finds the next
    lower face (gift wrapping).
    """
    pa, pb = lifted[a], lifted[b]
    ex, ey = pb[0] - pa[0], pb[1] - pa[1]
    best = None
    for t, pt in enumerate(lifted):
        if ex * (pt[1] - pa[1]) - ey * (pt[0] - pa[0]) <= 0:
            continue
        if best is None or _orient3(pa, pb, lifted[best], pt) < 0:
            best = t
    return best


def _cell_plane(
    pts: Sequence[Vec], hts: Sequence[Fraction], key: tuple[int, ...]
) -> SubdivisionCell:
    """The cell on the given points, with the affine interpolant of their heights."""
    i, j = key[0], key[1]
    d1 = vsub(pts[j], pts[i])
    k = next(k for k in key[2:] if cross2(d1, vsub(pts[k], pts[i])) != 0)
    d2 = vsub(pts[k], pts[i])
    det = cross2(d1, d2)
    rh1 = hts[j] - hts[i]
    rh2 = hts[k] - hts[i]
    sx = Q(rh1 * d2[1] - rh2 * d1[1], det)
    sy = Q(rh2 * d1[0] - rh1 * d2[0], det)
    c0 = hts[i] - (sx * pts[i][0] + sy * pts[i][1])
    return SubdivisionCell(key, (sx, sy), c0)


def regular_subdivision(points: Sequence[Vec], heights: Sequence) -> RegularSubdivision:
    """Lower convex hull subdivision of lifted points (exact rationals).

    The cells are the lower faces of the points lifted by their heights
    (scaled by the lcm of the height denominators, so every predicate is an
    integer determinant).  They are found by gift wrapping from face to face
    across the corner-to-corner edges of each cell, in O(F m) predicates for
    F cells and m points.  Each cell lists every point on its plane, so
    non-simplicial cells keep their interior and edge points.
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
    scale = math.lcm(*(h.denominator for h in hts))
    lifted = [(x, y, h.numerator * (scale // h.denominator)) for (x, y), h in zip(pts, hts)]

    # start: the lex-least point is a hull corner; the point of least slope
    # from it along the counterclockwise hull edge spans a lower edge (any
    # two such points span the same lifted line)
    p0 = index[hull[0]]
    d = vsub(hull[1], hull[0])
    on_edge = [t for t in range(len(pts)) if t != p0 and cross2(d, vsub(pts[t], pts[p0])) == 0]

    def slope(t: int) -> Fraction:
        return Q(lifted[t][2] - lifted[p0][2], dot(d, vsub(pts[t], pts[p0])))

    p1 = min(on_edge, key=slope)

    cells: dict[tuple[int, ...], SubdivisionCell] = {}
    crossed: set[tuple[int, int]] = set()
    todo = [(p0, p1, _wrap(lifted, p0, p1))]
    while todo:
        a, b, c = todo.pop()
        la, lb, lc = lifted[a], lifted[b], lifted[c]
        key = tuple(t for t in range(len(pts)) if _orient3(la, lb, lc, lifted[t]) == 0)
        if key in cells:
            continue
        cells[key] = _cell_plane(pts, hts, key)
        corners = [index[p] for p in convex_hull([pts[t] for t in key])]
        for u, v in zip(corners, corners[1:] + corners[:1]):
            edge = (min(u, v), max(u, v))
            if edge in crossed:
                continue
            crossed.add(edge)
            # the neighbour lies right of u -> v, i.e. left of v -> u
            w = _wrap(lifted, v, u)
            if w is not None:
                todo.append((v, u, w))
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


@frozen
class ChargeWeb:
    diagram: TropicalDiagram
    points: tuple[Vec, ...]
    heights: tuple[Fraction, ...]
    subdivision: RegularSubdivision
    simplicial: bool


def web_from_subdivision(sub: RegularSubdivision, allow_weighted: bool = False) -> TropicalDiagram:
    cells = sub.cells
    vertices = []
    for c in cells:
        vertices.append((-c.gradient[0], -c.gradient[1]))
    if len(set(vertices)) != len(vertices):
        raise ChargeError("coincident web vertices; perturb the heights")
    edge_cells: dict[tuple[int, int], list[int]] = {}
    for ci, c in enumerate(cells):
        for e in _cell_boundary_edges(sub, c):
            if not allow_weighted:
                diff = vsub(sub.points[e[1]], sub.points[e[0]])
                if diff != primitive(diff):
                    # a long dual edge means a weight > 1 web edge
                    raise ChargeError("degenerate Kähler parameters")
            edge_cells.setdefault(e, []).append(ci)
    edges = []
    rays = []
    for e, owners in sorted(edge_cells.items()):
        if len(owners) == 2:
            edges.append((owners[0], owners[1]))
        elif len(owners) == 1:
            ci = owners[0]
            p0, p1 = sub.points[e[0]], sub.points[e[1]]
            nu = rot = (p1[1] - p0[1], -(p1[0] - p0[0]))
            # orient nu outward: the cell centroid pairs below the edge
            cell = cells[ci]
            cxn = sum(sub.points[i][0] for i in cell.indices)
            cyn = sum(sub.points[i][1] for i in cell.indices)
            npts = len(cell.indices)
            if dot(nu, (Q(cxn, npts), Q(cyn, npts))) > dot(nu, p0):
                nu = vneg(nu)
            rays.append((ci, primitive(vneg(nu))))
        else:
            raise ChargeError("subdivision edge shared by more than two cells")
    return TropicalDiagram(2, tuple(vertices), tuple(edges), tuple(rays))


def build_web(q: ChargeMatrix, heights: Sequence, allow_singular: bool = False) -> ChargeWeb:
    """Full pipeline: charges -> kernel points -> regular subdivision -> web."""
    points = kernel_points(q)
    sub = regular_subdivision(points, heights)
    simplicial = sub.is_simplicial()
    if not simplicial and not allow_singular:
        raise ChargeError("degenerate Kähler parameters")
    diagram = web_from_subdivision(sub, allow_weighted=allow_singular)
    return ChargeWeb(diagram, tuple(points), sub.heights, sub, simplicial)


def diagram_from_charges(q: ChargeMatrix, heights: Sequence, allow_singular: bool = False) -> TropicalDiagram:
    return build_web(q, heights, allow_singular).diagram


def charges_from_json(data) -> tuple[ChargeMatrix, list[Fraction]]:
    if isinstance(data, str):
        data = json.loads(data)
    try:
        rows = tuple(tuple(int(x) for x in row) for row in data["charges"])
        heights = [Q(h) for h in data["heights"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ChargeError(f"malformed charge JSON: {exc}") from exc
    width = len(rows[0]) if rows else len(heights)
    return ChargeMatrix(rows, width), heights
