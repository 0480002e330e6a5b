"""Shared test utilities: random polygons and webs, unimodular maps, the brute-force
cone oracle, and the oracles of replaced kernels (hulls, the charge kernel, the
web builder, face heights, Novikov arithmetic, series accumulation, series
comparison, cone families, wall crossing, the product truncation, the
counterclockwise comparator, the face walk, validation, the transport edge
predicates, cut gluing by matrix products), and small helpers
that only the tests use."""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
import re
from enum import Enum
from fractions import Fraction
from math import gcd, prod
from typing import Iterable, Iterator, Optional, Sequence

from tropmirror.analytic import (
    AnalyticError,
    AnalyticSeries,
    Monomial,
    WallTransformation,
    _flip,
    expo_val_on_box,
)

from tropmirror.charges import (
    ChargeError,
    ChargeMatrix,
    RegularSubdivision,
    SubdivisionCell,
    _extended_gcd_vector,
    build_web,
    charges_from_json,
    integer_kernel_basis,
    regular_subdivision,
    web_from_subdivision,
)
from tropmirror.affine import AffineError, Crossing, CutPresentation, _below, _refuse, chamber_of, transport_crossings
from tropmirror.diagram import (
    EMPTY_DIAGRAM,
    DiagramError,
    AXIOMS,
    DualSubdivision,
    TropicalDiagram,
    ValidationReport,
    diagram_from_json,
    is_smooth,
    validate,
)
from tropmirror.dual import _pinned
from tropmirror.lattice import (
    Box,
    LatticeError,
    QPoint,
    Vec,
    content,
    convex_hull,
    cross2,
    dot,
    is_primitive,
    primitive,
    rot_minus90,
    vadd,
    vneg,
    vsub,
)
from tropmirror.novikov import (
    NovikovElement,
    NovikovError,
    _min_trunc,
    _trusted,
    nov,
    nov_add,
    nov_mul,
    nov_shift,
    nov_truncate,
    nov_val,
)
from tropmirror.mirror import MirrorError, Superpotential, _term_sort_key, presentation_to_json
from tropmirror.monodromy import MonodromyError, edge_covector
from tropmirror.record import frozen

Q = Fraction


def brute_force_subdivision(points, heights) -> RegularSubdivision:
    """Oracle for regular_subdivision: every non-collinear triple against every point.

    O(m^4) in Fraction arithmetic; the lower faces are the triples whose
    affine interpolant lies on or below every lifted point.
    """
    pts = [tuple(int(c) for c in p) for p in points]
    hts = [Q(h) for h in heights]
    if len(pts) != len(hts):
        raise ChargeError(f"height dimension mismatch: ({', '.join(map(str, hts))})")
    if len(pts) < 3:
        raise ChargeError("need at least three points")
    cells: dict[tuple[int, ...], SubdivisionCell] = {}
    m = len(pts)
    for i, j, k in itertools.combinations(range(m), 3):
        d1 = vsub(pts[j], pts[i])
        d2 = vsub(pts[k], pts[i])
        det = cross2(d1, d2)
        if det == 0:
            continue
        # affine interpolant through the three lifted points
        rh1 = hts[j] - hts[i]
        rh2 = hts[k] - hts[i]
        sx = Q(rh1 * d2[1] - rh2 * d1[1], det)
        sy = Q(rh2 * d1[0] - rh1 * d2[0], det)
        c0 = hts[i] - (sx * pts[i][0] + sy * pts[i][1])
        below = True
        equal = []
        for t in range(m):
            val = sx * pts[t][0] + sy * pts[t][1] + c0
            if val > hts[t]:
                below = False
                break
            if val == hts[t]:
                equal.append(t)
        if not below:
            continue
        key = tuple(sorted(equal))
        if key not in cells:
            cells[key] = SubdivisionCell(key, (sx, sy))
    if not cells:
        raise ChargeError("point configuration is degenerate (all collinear)")
    ordered = tuple(cells[k] for k in sorted(cells))
    return RegularSubdivision(tuple(pts), tuple(hts), ordered)


def _lower_hull_cells_1d(support: Sequence[Vec], vals: Sequence[Fraction]) -> list[tuple[int, ...]]:
    order = sorted(range(len(support)), key=lambda i: support[i][0])
    xs = [support[i][0] for i in order]
    ys = [vals[i] for i in order]
    # lower convex hull by monotone scan
    hull: list[int] = []
    for idx in range(len(order)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            lhs = (ys[b] - ys[a]) * (xs[idx] - xs[b])
            rhs = (ys[idx] - ys[b]) * (xs[b] - xs[a])
            if lhs >= rhs:
                hull.pop()
            else:
                break
        hull.append(idx)
    cells = []
    for a, b in zip(hull, hull[1:]):
        members = [
            order[t]
            for t in range(len(order))
            if xs[a] <= xs[t] <= xs[b]
            and (ys[t] - ys[a]) * (xs[b] - xs[a]) == (ys[b] - ys[a]) * (xs[t] - xs[a])
        ]
        cells.append(tuple(sorted(members)))
    return cells


def lattice_points_in_hull(hull):
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            inside = True
            m = len(hull)
            for i in range(m):
                a, b = hull[i], hull[(i + 1) % m]
                if cross2(vsub(b, a), vsub((x, y), a)) < 0:
                    inside = False
                    break
            if inside:
                out.append((x, y))
    return out


def random_lattice_polygon(rng: random.Random, max_points: int = 12) -> list:
    """All lattice points of a random lattice polygon with 3..max_points of them."""
    while True:
        raw = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 6))]
        hull = convex_hull(raw)
        if len(hull) < 3:
            continue
        pts = lattice_points_in_hull(hull)
        if 3 <= len(pts) <= max_points:
            return pts


def random_smooth_web(rng: random.Random, max_points: int = 12) -> TropicalDiagram:
    """A random smooth web: random lattice polygon, strictly convex heights.

    Strict convexity puts every lattice point on the lower hull, so the
    subdivision is a full (hence unimodular) triangulation for generic
    perturbations.
    """
    while True:
        pts = random_lattice_polygon(rng, max_points)
        heights = [
            Q(x * x + y * y) + Q(rng.randint(-(10**6), 10**6), 10**8) for x, y in pts
        ]
        try:
            sub = regular_subdivision(pts, heights)
            if not is_unimodular(sub) or used_points(sub) != set(range(len(pts))):
                continue
            web = web_from_subdivision(sub)
        except ChargeError:
            continue
        if validate(web).ok and is_smooth(web):
            return web


def charge_ladder_webs(seed: int) -> list[TropicalDiagram]:
    """Local P^2 of degree 2-5 and five lattice rectangles, built from their charges.

    Each charge row is the affine relation (1-x-y, x, y, -1) of one lattice
    point against the corner (0,0), (1,0), (0,1).  The heights are a strictly
    convex quadratic (with an xy tilt on the rectangles, so no unit square is
    cocircular) plus a seeded perturbation of about 1e-8 that leaves the
    triangulation alone.
    """
    rng = random.Random(seed)
    tilt = Q(5 * 10**6, 10**14 + 31)
    family = [
        ([(x, y) for x in range(k + 1) for y in range(k + 1 - x)], lambda x, y: Q(x * x + x * y + y * y))
        for k in range(2, 6)
    ] + [
        ([(x, y) for x in range(w + 1) for y in range(h + 1)], lambda x, y: x * x + y * y + tilt * x * y)
        for w, h in ((4, 1), (3, 2), (4, 2), (1, 4), (2, 3))
    ]
    webs = []
    for points, quadratic in family:
        corner = [(0, 0), (1, 0), (0, 1)]
        order = corner + sorted(p for p in points if p not in corner)
        rows = []
        for i, (x, y) in enumerate(order[3:], 3):
            row = [1 - x - y, x, y] + [0] * (len(order) - 3)
            row[i] = -1
            rows.append(tuple(row))
        heights = [
            quadratic(x, y) + Q(rng.choice((-1, 1)) * rng.randint(5 * 10**5, 10**6), 10**14 + 31) for x, y in order
        ]
        webs.append(build_web(ChargeMatrix(tuple(rows), len(order)), heights).diagram)
    return webs


def shipped_diagrams() -> list[TropicalDiagram]:
    """The five diagrams under diagrams/, by file name; charge files are built into webs."""
    root = os.path.join(os.path.dirname(__file__), "..", "diagrams")
    out = []
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            data = json.load(fh)
        out.append(build_web(*charges_from_json(data)).diagram if "charges" in data else diagram_from_json(data))
    assert len(out) == 5
    return out


def random_unimodular(rng: random.Random):
    """A random 2x2 integer matrix of determinant +-1 (product of shears/swaps)."""
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 6)):
        kind = rng.randint(0, 2)
        k = rng.randint(-3, 3)
        if kind == 0:
            m = [[m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]], m[1]]
        elif kind == 1:
            m = [m[0], [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]]
        else:
            m = [m[1], m[0]]
    return m


def apply_matrix(m, p):
    return (m[0][0] * p[0] + m[0][1] * p[1], m[1][0] * p[0] + m[1][1] * p[1])


def random_novikov(
    rng: random.Random, nterms: int = 4, truncation=None, min_num: int = -8
) -> NovikovElement:
    terms = []
    for _ in range(rng.randint(0, nterms)):
        e = Q(rng.randint(min_num, 24), rng.randint(1, 6))
        c = Q(rng.randint(-9, 9), rng.randint(1, 5))
        terms.append((e, c))
    return nov(terms, truncation)


def interior_point_near_vertex(diag: TropicalDiagram, rng: random.Random):
    """A rational point inside a face, close to a random vertex sector."""
    from tropmirror.diagram import locate_face

    while True:
        v = rng.randrange(len(diag.vertices))
        d1, d2 = (
            vneg(diag.segments[d >> 1][1]) if d & 1 else diag.segments[d >> 1][1]
            for d in rng.sample(diag.rings[v], 2)
        )
        mid = (Q(d1[0] + d2[0]), Q(d1[1] + d2[1]))
        if mid == (0, 0):
            continue
        eps = Q(1, rng.randint(7, 23))
        p = (
            diag.vertices[v][0] + eps * mid[0] + eps * eps * Q(d1[0]),
            diag.vertices[v][1] + eps * mid[1] + eps * eps * Q(d1[1]),
        )
        if locate_face(diag, p) is not None:
            return p


# --- shifted integral cones, intersected by brute force, as an oracle -------
#
# The dual subdivision's lattice points are exactly the points lying in the
# cone of every dual vertex; the tests enumerate a search box to check it.


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
            return not any(d)
        k = ratios.pop()
        return k >= 0 and all(di == k * gi for di, gi in zip(d, g))
    g1, g2 = gens
    det = cross2(g1, g2)
    a = Fraction(cross2(d, g2), det)
    b = Fraction(cross2(g1, d), det)
    return a >= 0 and b >= 0


def lattice_points(search: Box) -> Iterator[Vec]:
    """The lattice points of a box."""
    ranges = []
    for lo, hi in search.intervals:
        start = -((-lo.numerator) // lo.denominator)  # ceil(lo)
        stop = hi.numerator // hi.denominator  # floor(hi)
        ranges.append(range(start, stop + 1))
    for p in itertools.product(*ranges):
        yield p


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
    return {p for p in lattice_points(search) if all(cone_contains(c, p) for c in cones)}


def dual_vertex_cone(dual: DualSubdivision, face: int):
    """The integral cone at a dual vertex spanned by its neighbor vectors.

    Strictly convex at polygon corners, a half-plane at points interior to a
    polygon edge, the full plane at interior points.
    """
    apex = dual.lattice_points[face]
    vecs = []
    for _, (left, right) in dual.edge_duality:
        if left == face:
            vecs.append(vsub(dual.lattice_points[right], apex))
        elif right == face:
            vecs.append(vsub(dual.lattice_points[left], apex))
    vecs = sorted({primitive(v) for v in vecs})
    if not vecs:
        raise DiagramError("isolated dual vertex")
    if len(apex) == 1:
        return IntegralCone(apex, (vecs[0],), ConeKind.STRICT)
    ring = sorted(vecs, key=functools.cmp_to_key(_ccw_cmp))
    m = len(ring)
    if m == 1:
        return IntegralCone(apex, (ring[0],), ConeKind.STRICT)
    # classify by the counterclockwise gaps between consecutive directions
    for i in range(m):
        a, b = ring[i], ring[(i + 1) % m]
        c = cross2(a, b)
        if c < 0:  # gap beyond a half turn: salient cone from b around to a
            return IntegralCone(apex, (b, a), ConeKind.STRICT)
        if c == 0 and dot(a, b) < 0:  # gap of exactly a half turn
            side = next((v for v in ring if cross2(b, v) != 0), None)
            if side is None:
                raise DiagramError("dual vertex cone spans only a line")
            return IntegralCone(apex, (b, side), ConeKind.HALF_PLANE)
    return IntegralCone(apex, (), ConeKind.FULL_PLANE)


# --- the charge kernel before integer arithmetic, as oracles ----------------
#
# kernel_points solved for theta and inverted W by Fraction Gauss-Jordan
# elimination, each cell's plane was interpolated in Fractions from three of
# its points, and primitive_q built Fractions to clear denominators.  The
# bodies are unchanged apart from their names.


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


def kernel_points_oracle(q: ChargeMatrix) -> list[Vec]:
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


def cell_plane_oracle(
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
    return SubdivisionCell(key, (sx, sy))


def primitive_q_oracle(v: Sequence[Fraction]) -> Vec:
    """Primitive integer vector parallel to a nonzero rational vector."""
    if all(x == 0 for x in v):
        raise LatticeError("zero has no primitive representative")
    denom = 1
    for x in v:
        denom = denom * Fraction(x).denominator // gcd(denom, Fraction(x).denominator)
    ints = [int(Fraction(x) * denom) for x in v]
    return primitive(ints)


# --- the web builder before one boundary walk per cell, as an oracle ---------
#
# web_from_subdivision found each cell's sides a second time, with its own
# convex hull and a Fraction parametrization of each side, and oriented each
# ray by a centroid test.  The bodies are unchanged.


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


def web_from_subdivision_oracle(sub: RegularSubdivision, allow_weighted: bool = False) -> TropicalDiagram:
    cells = sub.cells
    # distinct lower faces have distinct gradients, so the vertices are distinct
    vertices = [(-gx, -gy) for gx, gy in (c.gradient for c in cells)]
    edge_cells: dict[tuple[int, int], list[int]] = {}
    for ci, c in enumerate(cells):
        for e in _cell_boundary_edges(sub, c):
            owners = edge_cells.get(e)
            if owners is not None:
                owners.append(ci)
                continue
            (x0, y0), (x1, y1) = sub.points[e[0]], sub.points[e[1]]
            if not allow_weighted and math.gcd(x1 - x0, y1 - y0) != 1:
                # a long dual edge means a weight > 1 web edge
                raise ChargeError("degenerate Kähler parameters")
            edge_cells[e] = [ci]
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
            if dot(nu, (cxn, cyn)) > npts * dot(nu, p0):
                nu = vneg(nu)
            rays.append((ci, primitive(vneg(nu))))
        else:
            raise ChargeError("subdivision edge shared by more than two cells")
    return TropicalDiagram(2, tuple(vertices), tuple(edges), tuple(rays))


WEIGHT_REFUSAL = re.compile(
    r"subdivision side \((-?\d+), (-?\d+)\)-\((-?\d+), (-?\d+)\) has lattice length (\d+) \(a web edge of weight \5\)"
)


def weight_refusal(text: str) -> Optional[tuple[Vec, Vec]]:
    """The side that ``web_from_subdivision``'s weight refusal names, or None for any other text.

    The oracle above says "degenerate Kähler parameters" there; the web names
    the first long side it meets.  The lattice length named is checked.
    """
    match = WEIGHT_REFUSAL.fullmatch(text)
    if match is None:
        return None
    x0, y0, x1, y1, length = map(int, match.groups())
    assert gcd(x1 - x0, y1 - y0) == length > 1, text
    return (x0, y0), (x1, y1)


# --- the face heights before the gluing walk lifted them, as an oracle -------
#
# The heights were walked a second time, across the dual edges of the glued
# subdivision, sampling two points of each crossed edge.  The bodies are
# unchanged.


def edge_sample_points(diag: TropicalDiagram, e: int) -> tuple[QPoint, QPoint]:
    """Two points on edge row e (used to assert constancy of pairings)."""
    a = edge_anchor(diag, e)
    if diag.dim == 1:
        return a, a
    if e < len(diag.edges):
        i, j = diag.edges[e]
        return diag.vertices[i], diag.vertices[j]
    d = edge_direction_oracle(diag, e)
    return a, vadd(a, tuple(Q(c) for c in d))


def _walk_heights(diag: TropicalDiagram) -> tuple[Fraction, ...]:
    """Face heights at the zero base point, walked across the dual edges.

    Pinned by h(root) = 0 in the default gauge, with the increments
    h(left) = h(right) + <alpha_right - alpha_left, p> for p on the crossed
    edge.  The increment is constant along the edge by orthogonality, and the
    walk closes up around every loop (both asserted); neither check depends
    on the base point or the gauge, so one walk per diagram suffices.
    """
    dual = diag.dual
    heights: dict[int, Fraction] = {dual.root_face: Q(0)}
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for e, (left, right) in dual.edge_duality:
        adjacency.setdefault(left, []).append((right, e))
        adjacency.setdefault(right, []).append((left, e))
    stack = [dual.root_face]
    while stack:
        f = stack.pop()
        for g, e in adjacency.get(f, ()):
            p0, p1 = edge_sample_points(diag, e)
            step = vsub(dual.lattice_points[f], dual.lattice_points[g])
            inc = dot(step, p0)
            if inc != dot(step, p1):
                raise DiagramError(f"pairing is not constant along {diag.edge_name(e)}")
            h = heights[f] + inc
            if g in heights:
                if heights[g] != h:
                    raise DiagramError("face heights are inconsistent around a loop")
            else:
                heights[g] = h
                stack.append(g)
    if len(heights) != len(dual.lattice_points):
        raise DiagramError("dual graph is not connected")
    return tuple(heights[f] for f in range(len(heights)))


# --- the replaced normalization, as an oracle ---------------------------------
#
# normalize_presentation as it was when it ran the lower hull of the support
# and its t-exponents a second time, to find the cell at the root.  The only
# changes are the zero slope of the result, which the record now carries, and
# the record's shape: the superpotential is the presentation, and its root is
# the origin, so the support is not shifted.


def _affine_on_root_cell(support, vals, root_index, dim):
    """The affine function interpolating vals on the lex-least hull cell at the root.

    In dimension 1 the support is sorted, and the cells at the root are read
    off the slopes from it: the root is on the lower hull iff the steepest
    slope to a point on its left is at most the shallowest slope to a point
    on its right, and the lex-least cell is the left one whenever the root
    has a left neighbour.
    """
    if dim == 1:
        (x0,), v0 = support[root_index], vals[root_index]
        left = [(v - v0) / (x - x0) for (x,), v in zip(support, vals) if x < x0]
        right = [(v - v0) / (x - x0) for (x,), v in zip(support, vals) if x > x0]
        if not (left or right) or (left and right and max(left) > min(right)):
            raise MirrorError("root vertex is not on the lower hull")
        slope = max(left) if left else min(right)
        return lambda a: v0 + slope * (a[0] - x0)
    sub = regular_subdivision(support, vals)
    containing = [c for c in sub.cells if root_index in c.indices]
    if not containing:
        raise MirrorError("root vertex is not on the lower hull")
    cell = min(containing, key=lambda c: tuple(support[i] for i in c.indices))
    (sx, sy), c0 = cell.gradient, plane_constant(sub, cell)
    return lambda a: sx * a[0] + sy * a[1] + c0


def normalize_oracle(g: Superpotential) -> Superpotential:
    """Canonical form: the affine part of f absorbed.

    Subtracting the affine function that interpolates the t-exponents on the
    hull cell at the root rescales the u_i and the overall power of t.  The
    result is idempotent and independent of the base point used to build the
    superpotential.
    """
    support = [a for a, _ in g.terms]
    coeffs = [c for _, c in g.terms]
    vals = []
    for c in coeffs:
        v = nov_val(c)
        if v is None:
            raise MirrorError("superpotential coefficient vanished")
        vals.append(v)
    root_index = support.index(tuple(0 for _ in range(g.dim)))
    ell = _affine_on_root_cell(support, vals, root_index, g.dim)
    new_terms = []
    for alpha, c in zip(support, coeffs):
        delta = ell(alpha)
        new_terms.append((alpha, nov_shift(-delta, c)))
    for alpha, c in new_terms:
        v = nov_val(c)
        if v is None or v < 0:
            raise MirrorError("normalization produced a negative valuation")
    new_terms.sort(key=lambda item: _term_sort_key(item[0]))
    zero = tuple(0 for _ in range(g.dim))
    return Superpotential(g.dim, tuple(new_terms), g.truncation, zero)


# --- the replaced Novikov kernels and series accumulation, as oracles -------
#
# _q and nov_neg were the package's own until nothing in it used them: _q is
# the reader the Novikov constructors had before every rational went through
# lattice.read_rational (it takes True as 1), and nov_neg served only
# NovikovElement.__sub__.


def _q(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def nov_neg(a: NovikovElement) -> NovikovElement:
    return _trusted(tuple((e, -c) for e, c in a.terms), a.truncation)


#
# nov, nov_add and nov_inv as they were before the kernel stored its outputs
# without re-checking them; nov_inv summed dense powers of the tail.  series,
# eval_series and wall_cross called nov_add once per monomial into a growing
# accumulator, and wall_cross built an IntegralCone and a rule-named
# ConeFamily for every negative power.  The bodies are unchanged apart from
# calling each other.


def nov_oracle(terms: Iterable[tuple] = (), truncation=None) -> NovikovElement:
    """Build an element from unsorted (exponent, coefficient) pairs.

    Pairs with equal exponents are merged, zero coefficients dropped, and
    terms at or above the truncation discarded.
    """
    trunc = None if truncation is None else _q(truncation)
    acc: dict[Fraction, Fraction] = {}
    for e, c in terms:
        e, c = _q(e), _q(c)
        acc[e] = acc.get(e, Q(0)) + c
    kept = sorted((e, c) for e, c in acc.items() if c != 0 and (trunc is None or e < trunc))
    return NovikovElement(tuple(kept), trunc)


def nov_add_oracle(a: NovikovElement, b: NovikovElement) -> NovikovElement:
    trunc = _min_trunc(a.truncation, b.truncation)
    return nov_oracle(list(a.terms) + list(b.terms), trunc)


# nov_add as it was from the linear merge until it summed through _from_sums
# like nov and nov_mul; the body is unchanged.


def nov_add_merge_oracle(a: NovikovElement, b: NovikovElement) -> NovikovElement:
    """Merge the two sorted term lists in one pass."""
    trunc = _min_trunc(a.truncation, b.truncation)
    x, y = a.terms, b.terms
    nx, ny = len(x), len(y)
    out = []
    i = j = 0
    while i < nx and j < ny:
        ex, ey = x[i][0], y[j][0]
        if ex < ey:
            out.append(x[i])
            i += 1
        elif ey < ex:
            out.append(y[j])
            j += 1
        else:
            c = x[i][1] + y[j][1]
            if c:
                out.append((ex, c))
            i += 1
            j += 1
    out += x[i:]
    out += y[j:]
    if trunc is not None:
        while out and out[-1][0] >= trunc:
            out.pop()
    return _trusted(tuple(out), trunc)


def product_truncation_oracle(a: NovikovElement, b: NovikovElement) -> Optional[Fraction]:
    """Sound truncation window for a product: ``_product_truncation`` with its two orders written out.

    A term dropped from a (exponent >= T_a) meets stored or dropped content of
    b at exponent >= T_a + min(val b, T_b), and symmetrically; below the
    minimum of those bounds the product is fully determined.
    """

    def lowest(x: NovikovElement) -> Optional[Fraction]:
        v = nov_val(x)
        if v is not None:
            return v  # stored terms sit below the truncation
        return x.truncation

    candidates = []
    if a.truncation is not None:
        e = lowest(b)
        if e is not None:
            candidates.append(a.truncation + e)
    if b.truncation is not None:
        e = lowest(a)
        if e is not None:
            candidates.append(b.truncation + e)
    return min(candidates) if candidates else None


def nov_inv_oracle(a: NovikovElement, E) -> NovikovElement:
    """Inverse of a nonzero element modulo t^E.

    Writes a = c0 t^v (1 + r) with val r > 0 and expands the geometric series
    in r.  The result b satisfies a*b == 1 mod t^E; accordingly b carries terms
    up to exponent E - v, i.e. truncation E - val(a).
    """
    if a.is_zero():
        raise NovikovError("division by zero")
    E = _q(E)
    v, c0 = a.terms[0]
    # tail r with val(r) > 0; a = c0 t^v (1 + r)
    r = NovikovElement(tuple((e - v, c / c0) for e, c in a.terms[1:]), None)
    r = nov_truncate(r, E)
    result = nov_oracle([(0, 1)], E)
    power = nov_oracle([(0, 1)], E)
    if r.terms:
        delta = r.terms[0][0]
        k = 0
        while (k + 1) * delta < E:
            power = nov_mul(power, nov_neg(r))
            result = nov_add_oracle(result, power)
            k += 1
    result = nov_scale(Q(1) / c0, result)
    return nov_shift(-v, result)


def cone_family_converges(apex: Vec, cone: IntegralCone, box: Box) -> bool:
    """True iff every stored generator pairs positively over the whole box."""
    if cone.kind is ConeKind.FULL_PLANE:
        raise AnalyticError("family cannot converge")
    for g in cone.generators:
        if expo_val_on_box(g, box) <= 0:
            return False
    return True


@frozen
class ConeFamily:
    """Coefficients c_k on z^{apex + k*gamma}, k >= 0, by a named rule.

    Rule "neg_binomial" with power m encodes (1 + z^gamma)^{-m} z^{apex}.
    """

    apex: Vec
    cone: IntegralCone
    rule: str
    power: int
    coeff: NovikovElement

    def materialize(self, truncation: Fraction, box: Box) -> list[Monomial]:
        if self.rule != "neg_binomial":
            raise AnalyticError(f"unknown family rule {self.rule}")
        if self.coeff.is_zero():
            raise AnalyticError("cone family coefficient must be nonzero")
        gamma = self.cone.generators[0]
        if not cone_family_converges(self.apex, self.cone, box):
            raise AnalyticError("cone family has no val-positive increments on the chamber")
        step = expo_val_on_box(gamma, box)
        base = nov_val(self.coeff) + expo_val_on_box(self.apex, box)
        out = []
        k = 0
        m = self.power
        while base + k * step < truncation:
            c = math.comb(m + k - 1, k) * (-1) ** k
            out.append(Monomial(nov_scale(c, self.coeff), vadd(self.apex, tuple(k * g for g in gamma))))
            k += 1
        return out


def series_oracle(terms, chamber: str, box: Box, truncation) -> AnalyticSeries:
    """Build a series, merging duplicate exponents and dropping zeros; its dimension is the box's."""
    acc: dict[Vec, NovikovElement] = {}
    for item in terms:
        m = item if isinstance(item, Monomial) else Monomial(item[0], item[1])
        acc[m.expo] = nov_add_oracle(acc.get(m.expo, nov_oracle()), m.coeff)
    kept = [Monomial(c, e) for e, c in sorted(acc.items()) if not c.is_zero()]
    return AnalyticSeries(tuple(kept), chamber, box, Q(truncation))


def eval_series_oracle(a: AnalyticSeries, point: Sequence) -> NovikovElement:
    """Evaluate at a base point: each z^u contributes t^{<u, x>}."""
    x = tuple(Q(c) for c in point)
    if len(x) != a.dim:
        raise AnalyticError("evaluation point dimension mismatch")
    total = nov_oracle(truncation=a.truncation)
    for m in a.terms:
        total = nov_add_oracle(total, nov_shift(dot(m.expo, x), m.coeff))
    return total


def wall_cross_oracle(a: AnalyticSeries, w: WallTransformation, E, target_box: Box) -> AnalyticSeries:
    """Apply the wall-crossing substitution monomial by monomial.

    Affine mode: z^u -> z^{u + <u,m> gamma}.  Corrected mode:
    z^u -> z^u (1 + z^gamma)^{<u,m>}, expanded.  Non-negative powers expand
    exactly (truncation immaterial); negative powers are cone families
    materialized up to t^E against the target chamber box, so the result is a
    ring homomorphism modulo t^E.  The chamber tag flips and the box becomes
    the target's.
    """
    E = Q(E)
    target = _flip(a.chamber)
    out: list[Monomial] = []
    for m in a.terms:
        k = dot(m.expo, w.normal)
        if w.mode == "affine":
            out.append(Monomial(m.coeff, vadd(m.expo, tuple(k * g for g in w.gamma))))
            continue
        if k >= 0:
            for i in range(k + 1):
                out.append(
                    Monomial(
                        nov_scale(math.comb(k, i), m.coeff),
                        vadd(m.expo, tuple(i * g for g in w.gamma)),
                    )
                )
        else:
            cone = IntegralCone((0,) * a.dim, (w.gamma,), ConeKind.STRICT)
            family = ConeFamily(m.expo, cone, "neg_binomial", -k, m.coeff)
            out.extend(family.materialize(E, target_box))
    return series_oracle(out, target, target_box, E)


def assert_kernel_output(x: NovikovElement) -> None:
    """x stores only what the public, checking constructor would store."""
    assert type(x.terms) is tuple
    for pair in x.terms:
        assert type(pair) is tuple and len(pair) == 2
        assert type(pair[0]) is Fraction and type(pair[1]) is Fraction
    assert x.truncation is None or type(x.truncation) is Fraction
    assert NovikovElement(x.terms, x.truncation) == x


# --- the per-term series kernel, as oracles ---------------------------------
#
# series_eq_mod looked each exponent up with AnalyticSeries.coefficient, a
# linear scan, and compared through nov_add and nov_scale; series_mul built a
# Monomial per product term; ConeFamily.materialize returned one Monomial per
# term, its coefficient scaled by math.comb.  The bodies are unchanged apart
# from the method bodies taking ``self`` as a plain argument and calling each
# other.


def coefficient(self: AnalyticSeries, expo: Vec) -> NovikovElement:
    for m in self.terms:
        if m.expo == tuple(expo):
            return m.coeff
    return nov()


def series_eq_mod_oracle(a: AnalyticSeries, b: AnalyticSeries, E) -> bool:
    """Equality of series modulo t^E in the box valuation of a's chamber."""
    E = Q(E)
    expos = {m.expo for m in a.terms} | {m.expo for m in b.terms}
    for e in expos:
        diff = nov_add(coefficient(a, e), nov_scale(-1, coefficient(b, e)))
        if diff.is_zero():
            continue
        if nov_val(diff) + expo_val_on_box(e, a.box) < E:
            return False
    return True


def series_mul_oracle(a: AnalyticSeries, b: AnalyticSeries) -> AnalyticSeries:
    if a.chamber != b.chamber:
        raise AnalyticError("cannot multiply series on different chambers")
    out = (
        Monomial(nov_mul(ma.coeff, mb.coeff), vadd(ma.expo, mb.expo))
        for ma in a.terms
        for mb in b.terms
    )
    return series_oracle(out, a.chamber, a.box, min(a.truncation, b.truncation))


def materialize_oracle(self, truncation: Fraction, box: Box) -> list[Monomial]:
    """ConeFamily.materialize of ``self``, one Monomial per term."""
    if self.coeff.is_zero():
        raise AnalyticError("cone family coefficient must be nonzero")
    gamma = self.gamma
    step = expo_val_on_box(gamma, box)
    if step <= 0:
        raise AnalyticError("cone family has no val-positive increments on the chamber")
    base = nov_val(self.coeff) + expo_val_on_box(self.apex, box)
    out = []
    k = 0
    m = self.power
    while base + k * step < truncation:
        c = math.comb(m + k - 1, k) * (-1) ** k
        out.append(Monomial(nov_scale(c, self.coeff), vadd(self.apex, tuple(k * g for g in gamma))))
        k += 1
    return out


# --- the counterclockwise order before the exact sort key -------------------
#
# faces sorted the darts at a vertex and the rays at infinity through
# functools.cmp_to_key with this comparator; the face oracle and the dual
# cone still do.


def _angle_class(d: Sequence) -> int:
    x, y = d
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def _ccw_cmp(a: Sequence, b: Sequence) -> int:
    """Exact counterclockwise comparison of nonzero direction vectors from angle 0."""
    ha, hb = _angle_class(a), _angle_class(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = cross2(a, b)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


# --- the face walk on Dart records, as an oracle ------------------------------
#
# faces keyed its bookkeeping by a hashed Dart record, found each vertex's
# outgoing darts by scanning every dart, and stored the sides of each edge.
# The bodies are unchanged apart from the names, from returning the four
# parts of the old FaceComplex as a tuple, from listing each face as its
# tuple of darts (the Face record and its bounded and recession fields, which
# nothing read, are gone), and from naming an edge by its row in the edge
# table, with directions from edge_direction_oracle.

# A dart is a directed edge end: (edge row, tail vertex, head vertex) with
# head = -1 meaning the point at infinity (rays).  Faces are traced with the
# rotation rule next(d) = ccw-successor of twin(d); at infinity the rotation
# runs clockwise (descending ray angle, parallel rays ordered by their
# perpendicular offset).


@frozen
class Dart:
    edge: int
    tail: int
    head: int

    def twin(self) -> "Dart":
        return Dart(self.edge, self.head, self.tail)


def _dart_direction_oracle(diag: TropicalDiagram, d: Dart) -> Vec:
    base = edge_direction_oracle(diag, d.edge)
    if d.edge < len(diag.edges):
        i, _ = diag.edges[d.edge]
        return base if d.tail == i else vneg(base)
    return base  # outgoing ray dart


def faces_oracle(diag: TropicalDiagram):
    """Enumerate the faces of the planar complement of a d=2 diagram.

    Returns (faces, dart_face, edge_sides, rotations): the faces with Dart
    orbits, the face of each Dart, the (left, right) faces of each edge row,
    and each vertex's ccw-ordered outgoing Darts (-1 is infinity).
    """
    if diag.dim != 2:
        raise DiagramError("face tracing requires dimension 2")
    if not diag.vertices:
        raise DiagramError("empty diagram has no faces")

    darts: list[Dart] = []
    first_ray = len(diag.edges)
    for k, (i, j) in enumerate(diag.edges):
        darts.append(Dart(k, i, j))
        darts.append(Dart(k, j, i))
    for r, (i, _) in enumerate(diag.rays):
        darts.append(Dart(first_ray + r, i, -1))
        darts.append(Dart(first_ray + r, -1, i))

    # rotation at finite vertices: counterclockwise by outgoing direction
    rotation: dict[int, list[Dart]] = {}
    for v in range(len(diag.vertices)):
        out = [d for d in darts if d.tail == v]
        out.sort(key=functools.cmp_to_key(lambda a, b: _ccw_cmp(_dart_direction_oracle(diag, a), _dart_direction_oracle(diag, b))))
        rotation[v] = out

    # rotation at infinity: descending ray angle; parallel rays ordered by
    # ascending perpendicular offset of their source vertex
    def inf_cmp(a: Dart, b: Dart) -> int:
        da = edge_direction_oracle(diag, a.edge)
        db = edge_direction_oracle(diag, b.edge)
        c = _ccw_cmp(da, db)
        if c != 0:
            return -c
        offa = dot(rot_minus90(da), diag.vertices[a.head])
        offb = dot(rot_minus90(db), diag.vertices[b.head])
        if offa == offb:
            raise DiagramError("two rays share a line; faces are ambiguous")
        return -1 if offa < offb else 1

    rotation[-1] = sorted((d for d in darts if d.tail == -1), key=functools.cmp_to_key(inf_cmp))

    successor = {d: ring[(i + 1) % len(ring)] for ring in rotation.values() for i, d in enumerate(ring)}

    dart_face: dict[Dart, int] = {}
    face_list: list[tuple[Dart, ...]] = []
    for start in darts:
        if start in dart_face:
            continue
        orbit = []
        d = start
        while True:
            orbit.append(d)
            dart_face[d] = len(face_list)
            d = successor[d.twin()]
            if d == start:
                break
        face_list.append(tuple(orbit))

    edge_sides: dict[int, tuple[int, int]] = {}
    for k in range(len(diag.edges)):
        i, j = diag.edges[k]
        fwd = Dart(k, i, j)
        edge_sides[k] = (dart_face[fwd.twin()], dart_face[fwd])
    for r in range(len(diag.rays)):
        i, _ = diag.rays[r]
        fwd = Dart(first_ray + r, i, -1)
        edge_sides[first_ray + r] = (dart_face[fwd.twin()], dart_face[fwd])

    return tuple(face_list), dart_face, edge_sides, rotation


# --- validation and the transport edge predicates before the edge table ------
#
# validate walked the vertex stars, a per-vertex list of (edge, direction)
# pairs with rays as stored, and found connectivity through an adjacency dict;
# transport switched on the edge's kind (bounded edge, ray or marked point)
# for its anchor, direction and far end, dividing for the far end on every
# call.  The bodies are unchanged apart from the names, from naming an edge
# by its row in the edge table (the kind is read off the row), and from the
# report, which validate_oracle checks against its four flags before it
# returns the offenders: the stars property is _stars_oracle, and
# edge_direction is edge_direction_oracle, which computes the primitive
# directions that the cached TropicalDiagram.directions held without reading
# the edge table.


def edge_direction_oracle(diag: TropicalDiagram, e: int) -> Vec:
    if diag.dim == 1:
        raise DiagramError(f"{diag.edge_name(e)} has no direction")
    if e < len(diag.edges):
        i, j = diag.edges[e]
        return primitive_q_oracle(vsub(diag.vertices[j], diag.vertices[i]))
    return primitive(diag.rays[e - len(diag.edges)][1])


def _stars_oracle(diag: TropicalDiagram) -> tuple[tuple[tuple[int, Vec], ...], ...]:
    """Per vertex, its outgoing (edge row, direction) pairs: edges, then rays."""
    stars: list[list[tuple[int, Vec]]] = [[] for _ in diag.vertices]
    for k, (i, j) in enumerate(diag.edges):
        d = edge_direction_oracle(diag, k)
        stars[i].append((k, d))
        stars[j].append((k, vneg(d)))
    for r, (i, d) in enumerate(diag.rays):
        stars[i].append((len(diag.edges) + r, d))
    return tuple(tuple(s) for s in stars)


def validate_oracle(diag: TropicalDiagram) -> ValidationReport:
    """Check the semi-toric axioms; failures are reported, not raised."""
    if not diag.vertices:
        # a web or line with no vertex has one face, so nothing downstream can run
        return ValidationReport((("connected", EMPTY_DIAGRAM),))
    if diag.dim == 1:
        return ValidationReport(())
    trivalent = True
    balanced = True
    primitive_dirs = True
    offenders: list[tuple[str, str]] = []
    for v, star in enumerate(_stars_oracle(diag)):
        if len(star) != 3:
            trivalent = False
            offenders.append(("trivalent", f"vertex {v} has valence {len(star)}"))
        dirs = [d for _, d in star]
        total = dirs[0] if dirs else None
        for d in dirs[1:]:
            total = vadd(total, d)
        if dirs and any(c != 0 for c in total):
            balanced = False
            offenders.append(("balanced", f"vertex {v} direction sum {tuple(total)}"))
        seen = set()
        for _, d in star:
            if tuple(d) in seen:
                # a repeated outgoing direction is a weight-2 edge in disguise
                primitive_dirs = False
                offenders.append(("primitive_directions", f"vertex {v} repeats direction {tuple(d)}"))
            seen.add(tuple(d))
    for r, (_, d) in enumerate(diag.rays):
        if not is_primitive(d):
            primitive_dirs = False
            offenders.append(("primitive_directions", f"ray {r} direction {tuple(d)} not primitive"))
    # connectivity over bounded edges
    n = len(diag.vertices)
    connected = True
    if n > 1:
        adj = {i: set() for i in range(n)}
        for i, j in diag.edges:
            adj[i].add(j)
            adj[j].add(i)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        connected = len(seen) == n
        if not connected:
            offenders.append(("connected", f"{n - len(seen)} vertices unreachable"))
    report = ValidationReport(tuple(offenders))
    flags = (trivalent, balanced, primitive_dirs, connected)
    # an axiom fails exactly when it names an offender
    assert report.failed_axioms() == [axiom for axiom, good in zip(AXIOMS, flags) if not good]
    return report


def edge_anchor(diag: TropicalDiagram, e: int) -> QPoint:
    if diag.dim == 1:
        return diag.vertices[e]
    if e < len(diag.edges):
        return diag.vertices[diag.edges[e][0]]
    return diag.vertices[diag.rays[e - len(diag.edges)][0]]


def _edge_param_oracle(diag: TropicalDiagram, e: int, x) -> Optional[Fraction]:
    """The s with x = anchor + s*d on the line of the edge, or None off it.

    A d=1 marked point is its own line: s is 0 on it.
    """
    anchor = edge_anchor(diag, e)
    if diag.dim == 1:
        return Q(0) if x[0] == anchor[0] else None
    d = edge_direction_oracle(diag, e)
    rel = vsub(x, anchor)
    axis = 0 if d[0] != 0 else 1
    s = rel[axis] / d[axis]
    return s if all(ri == s * di for di, ri in zip(d, rel)) else None


def edge_end_oracle(diag: TropicalDiagram, e: int) -> Optional[Fraction]:
    """The parameter of the far end of the edge: 0 for a point, None for a ray."""
    if diag.dim == 1:
        return Q(0)
    if e >= len(diag.edges):
        return None
    return _edge_param_oracle(diag, e, diag.vertices[diag.edges[e][1]])


def on_edge_oracle(diag: TropicalDiagram, e: int, pt) -> bool:
    """Is a planar point on the closed edge (segment, ray, or d=1 point)?"""
    s = _edge_param_oracle(diag, e, pt)
    if s is None or s < 0:
        return False
    end = edge_end_oracle(diag, e)
    return end is None or s <= end


def segment_crossings_oracle(pres: CutPresentation, seg: int, a: QPoint, b: QPoint) -> list[Crossing]:
    diag = pres.diagram
    axy, at = a[:-1], a[-1]
    bxy, bt = b[:-1], b[-1]
    found: list[tuple[Fraction, Crossing]] = []
    for e, (cov, tau) in enumerate(zip(diag.covectors, pres.taus)):
        anchor = edge_anchor(diag, e)
        fa = dot(cov, vsub(axy, anchor))
        fb = dot(cov, vsub(bxy, anchor))
        if fa == fb:
            if fa == 0 and min(at, bt) <= tau:
                # segment inside the cut plane: reject if its part at or
                # below the cut height projects onto the edge range
                lo, hi = _below(a, b, tau)
                ua, ub = (_edge_param_oracle(diag, e, x[:-1]) for x in (lo, hi))
                end = edge_end_oracle(diag, e)
                if max(ua, ub) >= 0 and (end is None or min(ua, ub) <= end):
                    # witness: the first point of that part over the edge
                    u = max(ua, 0) if end is None else min(max(ua, 0), end)
                    s = (u - ua) / (ub - ua) if ub != ua else 0
                    point = tuple(pl + s * (ph - pl) for pl, ph in zip(lo, hi))
                    raise _refuse("path runs along a cut", seg, diag.edge_name(e), point)
            continue
        if fa == 0 or fb == 0:
            # the plane is met only at an endpoint; error iff that endpoint
            # is on the actual cut region, otherwise no crossing occurs
            p = a if fa == 0 else b
            if p[-1] <= tau and on_edge_oracle(diag, e, p[:-1]):
                raise _refuse("path endpoint lies on a cut", seg, diag.edge_name(e), p)
            continue
        if (fa > 0) == (fb > 0):
            continue
        s = fa / (fa - fb)
        point = tuple(pa + s * (pb - pa) for pa, pb in zip(a, b))
        xq, tq = point[:-1], point[-1]
        u = _edge_param_oracle(diag, e, xq)
        end = edge_end_oracle(diag, e)
        if u < 0 or (end is not None and u > end):
            continue
        if tq > tau:
            continue  # passes above the cut, through glued regular base
        # at the cut's height, or in d=2 exactly over an edge endpoint (a
        # vertex line), the path meets the discriminant
        if tq == tau or (diag.dim == 2 and u in (0, end)):
            raise _refuse("path hits discriminant", seg, diag.edge_name(e), point)
        sign = 1 if fb > fa else -1
        found.append((s, Crossing(e, sign, point)))
    found.sort(key=lambda item: item[0])
    return [c for _, c in found]


# --- cut gluing by matrix products, as an oracle -------------------------------
#
# Before every crossing word was summed as one signed covector, loops
# multiplied one standard-form matrix per crossing and transport applied one
# per cut crossing.  The matrices commute, so the product is the shear of the
# sum; these keep the products.  ``Matrix``, ``shear``, ``standard_form_matrix``
# and ``Loop`` are the package's matrix form of that monodromy, unchanged.

Matrix = tuple[tuple[int, ...], ...]


def shear(cov: Sequence[int]) -> Matrix:
    """I + cov e_n^T, n = len(cov) + 1, for any integer cov (unchecked)."""
    n = len(cov) + 1
    return tuple(
        tuple(1 if i == j else 0 for j in range(n - 1)) + (cov[i] if i < n - 1 else 1,) for i in range(n)
    )


def standard_form_matrix(cov: Sequence[int], n: int) -> Matrix:
    """Unipotent matrix with the primitive covector in the upper last column."""
    cov = tuple(int(c) for c in cov)
    if n not in (2, 3):
        raise MonodromyError("standard form defined for n in {2, 3}")
    if len(cov) != n - 1:
        raise MonodromyError("covector length must be n - 1")
    if not is_primitive(cov):
        raise MonodromyError(f"covector {cov} is not primitive")
    return shear(cov)


Loop = tuple[tuple[int, int], ...]  # (edge row, sign) crossings


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def mat_apply(a: Matrix, v: Sequence[int]) -> Vec:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def crossing_matrix(cov: Sequence[int], sign: int, n: int) -> Matrix:
    """Gluing matrix of a signed crossing: M(cov) forward, M(-cov) = M(cov)^-1 back."""
    if sign not in (1, -1):
        raise MonodromyError("crossing signs must be +1 or -1")
    return standard_form_matrix(tuple(sign * c for c in cov), n)


def loop_monodromy_oracle(diag: TropicalDiagram, loop: Loop) -> Matrix:
    """Ordered product of signed standard-form matrices along a crossing word.

    The first crossing acts first: the result applied to a covector gives its
    parallel transport around the loop.
    """
    n = diag.dim + 1
    total = identity_matrix(n)
    for e, sign in loop:
        total = mat_mul(crossing_matrix(edge_covector(diag, e), sign, n), total)
    return total


def transport_covector_oracle(pres: CutPresentation, path: Sequence, g: Sequence[int]) -> Vec:
    """Parallel transport of an integer covector along a polyline.

    The covector is written in the basis (eta_1, ..., eta_{n-1}, g_0); each
    signed cut crossing applies the gluing matrix or its inverse.
    """
    crossings = transport_crossings(pres, path)
    v = tuple(int(c) for c in g)
    if len(v) != pres.n:
        raise AffineError(f"covector dimension mismatch: {g}")
    diag = pres.diagram
    for crossing in crossings:
        cov = diag.covectors[crossing.edge]
        v = mat_apply(crossing_matrix(cov, crossing.sign, pres.n), v)
    return v


def vertex_loop(diag: TropicalDiagram, v: int) -> Loop:
    """The loop crossing the three edges around a vertex counterclockwise.

    Its monodromy is the identity: this is the cocycle relation in matrix form.
    """
    # crossing counterclockwise around v passes each edge in its canonical
    # direction when v's dart along it is even, against it when odd
    return tuple((d >> 1, -1 if d & 1 else 1) for d in diag.face_complex.rotations[v])


# --- a diagram's rationals before one table of integers held them, as oracles
#
# The duplicate-vertex check compared (numerator, denominator) pairs, each
# bounded edge cleared the denominators of its own two ends, and the gluing
# took its own lcm of the vertex denominators.  The bodies are unchanged,
# except that ``diagram_checks_oracle`` (the old ``__post_init__``) runs on any
# object with the four fields, ``segments_oracle`` (the old ``segments``)
# takes the diagram as an argument, and ``glue_oracle`` reads
# ``segments_oracle`` where ``_glue`` read ``diag.segments`` and lists each
# edge's faces under its row.


def primitive_direction(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[Vec, Fraction]:
    """Primitive integer d and rational s > 0 with q - p = s*d, for distinct rational points.

    Entry k of the difference is (q_k.num p_k.den - p_k.num q_k.den) over
    d_k = p_k.den q_k.den; over the product of the d_k every entry is an
    integer, so d is that integer vector over its content g, and s is g over
    the product.  The only Fraction built is s.
    """
    nums, dens = [], []
    for a, b in zip(p, q, strict=True):
        a = a if isinstance(a, (int, Fraction)) else Fraction(a)
        b = b if isinstance(b, (int, Fraction)) else Fraction(b)
        nums.append(b.numerator * a.denominator - a.numerator * b.denominator)
        dens.append(a.denominator * b.denominator)
    total = prod(dens)
    w = [x * (total // d) for x, d in zip(nums, dens)]
    return primitive(w), Fraction(content(w), total)


def exact_key(v: Sequence[Fraction]) -> tuple:
    """A hashable key equal for equal rational vectors, without Fraction.__hash__.

    Hashing a Fraction inverts its denominator modulo a prime, which is slow
    for the large denominators of perturbed heights; reduced Fractions are
    equal exactly when their numerators and denominators are.
    """
    return tuple((c.numerator, c.denominator) for c in v)


def diagram_checks_oracle(self) -> None:
    if self.dim not in (1, 2):
        raise DiagramError("dimension must be 1 or 2")
    verts = tuple(tuple(c if c.__class__ is Q else Q(c) for c in v) for v in self.vertices)
    for v in verts:
        if len(v) != self.dim:
            raise DiagramError(f"vertex dimension mismatch: ({', '.join(map(str, v))})")
    object.__setattr__(self, "vertices", verts)
    if len(set(map(exact_key, verts))) != len(verts):
        raise DiagramError("two vertices coincide")
    edges = tuple((int(i), int(j)) for i, j in self.edges)
    object.__setattr__(self, "edges", edges)
    rays = tuple((int(i), tuple(int(c) for c in d)) for i, d in self.rays)
    object.__setattr__(self, "rays", rays)
    if self.dim == 1 and (edges or rays):
        raise DiagramError("d=1 diagrams carry no edges or rays")
    n = len(verts)
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise DiagramError("edge endpoint out of range")
        if i == j:
            raise DiagramError("edge endpoints must be distinct")
    for i, d in rays:
        if not 0 <= i < n:
            raise DiagramError("ray vertex out of range")
        if len(d) != self.dim:
            raise DiagramError(f"ray direction dimension mismatch: {d}")
        if all(c == 0 for c in d):
            raise DiagramError("ray direction is zero")


def segments_oracle(self) -> tuple[tuple[QPoint, Optional[Vec], Optional[Fraction]], ...]:
    """Per edge row, (anchor, primitive direction, end).

    The edge is anchor + s*direction for 0 <= s <= end; end is None for a
    ray.  A d=1 marked point is (v, None, 0).
    """
    verts = self.vertices
    if self.dim == 1:
        return tuple((v, None, 0) for v in verts)
    edges = tuple((verts[i], *primitive_direction(verts[i], verts[j])) for i, j in self.edges)
    return edges + tuple((verts[i], primitive(d), None) for i, d in self.rays)


def glue_oracle(diag: TropicalDiagram) -> tuple[DualSubdivision, tuple[Fraction, ...]]:
    """Glue the local vertex cells into the dual subdivision, and lift it.

    Returns the subdivision in the default gauge and the face heights h at
    the zero base point: the diagram is the corner locus of min over faces of
    h(F) + <alpha_F, x>, pinned by h(root) = 0.  At a vertex v that minimum
    is attained by the three faces around v, so one value level[v] per
    vertex, carried along the gluing walk, gives every height.  The sums are
    taken on integers, over one common denominator of the vertices.
    """
    if not diag.vertices:
        raise DiagramError(EMPTY_DIAGRAM)
    report = diag.report
    # connectivity is named only when the local axioms hold
    failed = [a for a in report.failed_axioms() if a != "connected"] or report.failed_axioms()
    if failed:
        raise DiagramError("diagram fails axioms: " + ", ".join(failed))
    den = math.lcm(*(c.denominator for x in diag.vertices for c in x))
    xs = [tuple(c.numerator * (den // c.denominator) for c in x) for x in diag.vertices]
    if diag.dim == 1:
        order = sorted(range(len(diag.vertices)), key=lambda i: diag.vertices[i][0])
        k = len(order)
        # face j is the j-th interval from the left; its dual coordinate is k-j,
        # so crossing marked point p to the right adds p to the height
        points = [(k - j,) for j in range(k + 1)]
        heights = [0]
        for i in order:
            heights.append(heights[-1] + xs[i][0])
        duality = tuple((i, (pos, pos + 1)) for pos, i in enumerate(order))
        return _pinned(points, (), duality, heights, den)

    complex_ = diag.face_complex
    segments = segments_oracle(diag)
    nfaces = len(complex_.faces)

    # local cell of each vertex: faces in ccw dart order with corner offsets
    local: list[dict[int, Vec]] = []
    for v in range(len(xs)):
        ring = complex_.rotations[v]
        offsets: dict[int, Vec] = {}
        acc = (0, 0)
        # sector after dart ring[i] (ccw) lies clockwise of ring[i+1]
        for idx in range(len(ring)):
            nxt = ring[(idx + 1) % len(ring)]
            face_here = complex_.dart_face[nxt]  # face on the clockwise side of nxt
            if idx == 0:
                offsets[face_here] = acc
            else:
                if face_here in offsets and offsets[face_here] != acc:
                    raise DiagramError(f"face pinched at vertex {v}")
                offsets[face_here] = acc
            step = rot_minus90(segments[nxt >> 1][1])
            acc = vsub(acc, step) if nxt & 1 else vadd(acc, step)
        # acc is back at (0, 0): the steps are the turned outgoing directions,
        # which balancing makes sum to zero
        if len(offsets) != len(ring):
            raise DiagramError(f"face pinched at vertex {v}")
        local.append(offsets)

    # glue local cells along bounded edges; level[w] follows from the face f0
    # that w shares with v: h(f0) + <alpha_f0, x> at x_w minus at x_v
    anchor: list[Optional[Vec]] = [None] * len(xs)
    anchor[0] = (0, 0)
    level = [0] * len(xs)
    stack = [0]
    first_ray = 2 * len(diag.edges)
    while stack:
        v = stack.pop()
        for d in diag.rings[v]:
            if d >= first_ray:
                break  # a ring lists its ray darts last
            k = d >> 1
            w = diag.edges[k][~d & 1]
            shared = set(local[v]) & set(local[w])
            if len(shared) != 2:
                raise DiagramError(f"edge {k} does not separate two faces")
            if anchor[w] is None:
                f0, f1 = sorted(shared)
                cand = vadd(anchor[v], vsub(local[v][f0], local[w][f0]))
                check = vadd(anchor[v], vsub(local[v][f1], local[w][f1]))
                if cand != check:
                    raise DiagramError(f"gluing across edge {k} is inconsistent")
                anchor[w] = cand
                level[w] = level[v] + dot(vadd(cand, local[w][f0]), vsub(xs[w], xs[v]))
                stack.append(w)

    positions: list[Optional[Vec]] = [None] * nfaces
    heights: list[Optional[int]] = [None] * nfaces
    placed_at = [0] * nfaces  # the vertex that placed each face first
    for v in range(len(xs)):
        for f, off in local[v].items():
            p = vadd(anchor[v], off)
            h = level[v] - dot(p, xs[v])
            if positions[f] is None:
                positions[f], heights[f], placed_at[f] = p, h, v
            elif positions[f] != p:
                raise DiagramError(
                    "dual positions are inconsistent (monodromy obstruction): face"
                    f" {f} is at {positions[f]} from vertex {placed_at[f]} and at {p} from vertex {v}"
                )
            elif heights[f] != h:
                raise DiagramError(
                    f"face heights are inconsistent around a loop: face {f} has height"
                    f" {Q(heights[f], den)} at vertex {placed_at[f]} and {Q(h, den)} at vertex {v}"
                )
    if any(p is None for p in positions):
        raise DiagramError("a face received no dual position")

    triangles = tuple(tuple(sorted(cell)) for cell in local)
    duality = []
    for e in range(len(segments)):
        left, right = complex_.dart_face[2 * e + 1], complex_.dart_face[2 * e]
        if dot(vsub(positions[left], positions[right]), segments[e][1]) != 0:
            raise DiagramError(f"dual edge of {diag.edge_name(e)} is not orthogonal")
        duality.append((e, (left, right)))
    return _pinned(positions, triangles, tuple(duality), heights, den)


# --- small helpers that only the tests use ------------------------------------


def nov_scale(k, a: NovikovElement) -> NovikovElement:
    """k times a, through the public constructor."""
    k = Q(k)
    return nov([(e, k * c) for e, c in a.terms], a.truncation)


def box(*intervals) -> Box:
    return Box(tuple((Fraction(lo), Fraction(hi)) for lo, hi in intervals))


def replace(record, **changes):
    """A new record of the same class with ``changes`` applied; ``__post_init__`` runs again."""
    values = {name: getattr(record, name) for name in record._fields}
    values.update(changes)
    return record.__class__(**values)


def lattice_triangle_area(a: Sequence, b: Sequence, c: Sequence) -> Fraction:
    """Exact area |det(b-a, c-a)| / 2 of a planar triangle.

    Degenerate (collinear) triples return 0.
    """
    if not (len(a) == len(b) == len(c) == 2):
        raise LatticeError("triangle area requires dimension 2")
    return Fraction(abs(cross2(vsub(b, a), vsub(c, a))), 2)


def is_unimodular(sub: RegularSubdivision) -> bool:
    """Is every cell a triangle of lattice area 1/2?"""
    if not sub.is_simplicial():
        return False
    for c in sub.cells:
        a, b, d = (sub.points[i] for i in c.indices)
        if abs(cross2(vsub(b, a), vsub(d, a))) != 1:
            return False
    return True


def used_points(sub: RegularSubdivision) -> set[int]:
    """The indices of the points that some cell uses: those on the lower hull."""
    return {i for c in sub.cells for i in c.indices}


def plane_constant(sub: RegularSubdivision, cell: SubdivisionCell) -> Fraction:
    """The constant term of a cell's plane: h_i - <gradient, p_i> at any of its points."""
    i = cell.indices[0]
    return sub.heights[i] - dot(cell.gradient, sub.points[i])


def nov_zero(truncation=None) -> NovikovElement:
    return nov((), truncation)


def nov_eq_mod(a: NovikovElement, b: NovikovElement, E) -> bool:
    """True iff every term of a - b has exponent >= E."""
    E = _q(E)
    diff = nov(a.terms + tuple((e, -c) for e, c in b.terms))
    return all(e >= E for e, _ in diff.terms)


def superpotential_coefficient(g: Superpotential, alpha: Vec) -> NovikovElement:
    """The coefficient of u^alpha in g; alpha must be a dual vertex."""
    found = dict(g.terms)
    if alpha not in found:
        raise MirrorError(f"{alpha} is not in the superpotential support")
    return found[alpha]


def superpotential_support(g: Superpotential) -> tuple[Vec, ...]:
    return tuple(a for a, _ in g.terms)


def winding_degree(g: Superpotential, word: Sequence[tuple[str, int]]) -> int:
    """Winding degree of a monomial word [(generator, exponent), ...], by the gradings written out."""
    gradings = presentation_to_json(g)["gradings"]
    return sum(gradings[name] * e for name, e in word)


def flux_monomial(
    base: Sequence, alpha: Sequence[int], chamber: str, presentation=None
) -> Monomial:
    """The unit-coefficient flux monomial t^{<alpha, b>} z^alpha at base b.

    Satisfies the translation rule flux(b + c, alpha) equals
    t^{<alpha, c>} flux(b, alpha) exactly.  With a cut presentation supplied,
    the base point is checked to lie in the named chamber.
    """
    b = tuple(Q(c) for c in base)
    alpha = tuple(int(a) for a in alpha)
    if presentation is not None:
        found = chamber_of(presentation, b)  # raises "on wall" on walls
        if str(found) != chamber:
            raise AnalyticError(f"base point lies in {found}, not {chamber}")
    return Monomial(nov([(dot(alpha, b), 1)]), alpha)


@frozen
class AffineWall:
    """The retired affine mode of a wall crossing, z^u -> z^{u + <u,m> gamma}.

    ``WallTransformation`` refuses this mode; ``wall_cross_oracle`` still
    applies it, and the tests check it against ``transport_covector``.
    """

    gamma: Vec
    normal: Vec
    mode: str = "affine"
