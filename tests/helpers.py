"""Shared test utilities: random polygons and webs, unimodular maps, and the oracles
of replaced kernels (hulls, Novikov arithmetic, series accumulation)."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from tropmirror.analytic import (
    AnalyticError,
    AnalyticSeries,
    ConeFamily,
    Monomial,
    WallTransformation,
    _flip,
)

from tropmirror.charges import (
    ChargeError,
    RegularSubdivision,
    SubdivisionCell,
    regular_subdivision,
    web_from_subdivision,
)
from tropmirror.diagram import TropicalDiagram, is_smooth, validate
from tropmirror.lattice import Box, ConeKind, IntegralCone, Vec, convex_hull, cross2, dot, vadd, vsub
from tropmirror.novikov import (
    NovikovElement,
    NovikovError,
    _min_trunc,
    _q,
    nov,
    nov_mul,
    nov_neg,
    nov_scale,
    nov_shift,
    nov_truncate,
)

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


# --- the replaced Novikov kernels and series accumulation, as oracles -------
#
# nov, nov_add and nov_inv as they were before the kernel stored its outputs
# without re-checking them; nov_inv summed dense powers of the tail.  series,
# eval_series and wall_cross called nov_add once per monomial into a growing
# accumulator.  The bodies are unchanged apart from calling each other.


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


def series_oracle(terms, chamber: str, box: Box, truncation, dim: Optional[int] = None) -> AnalyticSeries:
    """Build a series, merging duplicate exponents and dropping zeros."""
    acc: dict[Vec, NovikovElement] = {}
    for item in terms:
        m = item if isinstance(item, Monomial) else Monomial(item[0], item[1])
        acc[m.expo] = nov_add_oracle(acc.get(m.expo, nov_oracle()), m.coeff)
    kept = [Monomial(c, e) for e, c in sorted(acc.items()) if not c.is_zero()]
    if dim is None:
        if not kept:
            raise AnalyticError("cannot infer dimension of an empty series")
        dim = len(kept[0].expo)
    return AnalyticSeries(dim, tuple(kept), chamber, box, Q(truncation))


def eval_series_oracle(a: AnalyticSeries, point: Sequence) -> NovikovElement:
    """Evaluate at a base point: each z^u contributes t^{<u, x>}."""
    x = tuple(Q(c) for c in point)
    if len(x) != a.dim:
        raise AnalyticError("evaluation point dimension mismatch")
    total = nov_oracle(truncation=a.truncation)
    for m in a.terms:
        total = nov_add_oracle(total, nov_shift(dot(m.expo, x), m.coeff))
    return total


def wall_cross_oracle(
    a: AnalyticSeries, w: WallTransformation, E, target_box: Optional[Box] = None
) -> AnalyticSeries:
    """Apply the wall-crossing substitution monomial by monomial.

    Affine mode: z^u -> z^{u + <u,m> gamma}.  Corrected mode:
    z^u -> z^u (1 + z^gamma)^{<u,m>}, expanded.  Non-negative powers expand
    exactly (truncation immaterial); negative powers are cone families
    materialized up to t^E against the target chamber box, so the result is a
    ring homomorphism modulo t^E.  The chamber tag flips.
    """
    E = Q(E)
    target = _flip(a.chamber)
    box = target_box if target_box is not None else a.box
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
            out.extend(family.materialize(E, box))
    return series_oracle(out, target, box, E, a.dim)


def assert_kernel_output(x: NovikovElement) -> None:
    """x stores only what the public, checking constructor would store."""
    assert type(x.terms) is tuple
    for pair in x.terms:
        assert type(pair) is tuple and len(pair) == 2
        assert type(pair[0]) is Fraction and type(pair[1]) is Fraction
    assert x.truncation is None or type(x.truncation) is Fraction
    assert NovikovElement(x.terms, x.truncation) == x
