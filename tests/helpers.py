"""Shared test utilities: random polygons and webs, unimodular maps, the hull oracles."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from tropmirror.charges import (
    ChargeError,
    RegularSubdivision,
    SubdivisionCell,
    regular_subdivision,
    web_from_subdivision,
)
from tropmirror.diagram import TropicalDiagram, is_smooth, validate
from tropmirror.lattice import Vec, convex_hull, cross2, vsub
from tropmirror.novikov import NovikovElement, nov

Q = Fraction


def brute_force_subdivision(points, heights) -> RegularSubdivision:
    """Oracle for regular_subdivision: every non-collinear triple against every point.

    O(m^4) in Fraction arithmetic; the lower faces are the triples whose
    affine interpolant lies on or below every lifted point.
    """
    pts = [tuple(int(c) for c in p) for p in points]
    hts = [Q(h) for h in heights]
    if len(pts) != len(hts):
        raise ChargeError("height vector length mismatch")
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
            cells[key] = SubdivisionCell(key, (sx, sy), c0)
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
            if not sub.is_unimodular() or sub.used_points() != set(range(len(pts))):
                continue
            web = web_from_subdivision(sub)
        except ChargeError:
            continue
        if validate(web).ok and is_smooth(web):
            return web


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
        star = diag.stars[v]
        (_, d1), (_, d2) = rng.sample(star, 2)
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
