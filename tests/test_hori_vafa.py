"""The Hori-Vafa round trip: charges and heights in, the Kähler class out.

In the Hori-Vafa mirror of a GLSM the coefficients of g satisfy one relation
per charge row: the Q_a-weighted sum of their valuations is <Q_a, h>.  Put
another way, the valuations of the normalized g are the input heights minus
an affine function of the points, and a point that the subdivision leaves
out lies strictly above the lower hull that the valuations span.  The checks
read only the input (charges, heights) and the output relation; between them
run kernel_points, the hull, the web, the gluing and the normalization.

The inputs are seeded polygons: the lattice points of the hull of the
unimodular corner (0,0), (1,0), (0,1) and random points, each charge row the affine relation (1-x-y, x, y, -1)
of one further point against the corner.  Heights are generic: a strictly
convex quadratic, which uses every point, the same with some non-corner
points lifted out of the hull, or random.  A web with an edge of weight
over 1 is refused, naming the long side of the subdivision, which the test
counts and skips.
"""

import itertools
import random
from fractions import Fraction as Q

from helpers import lattice_points_in_hull, used_points, weight_refusal
from tropmirror.charges import ChargeError, ChargeMatrix, build_web
from tropmirror.lattice import convex_hull, cross2, vsub
from tropmirror.mirror import normalize_presentation, superpotential
from tropmirror.novikov import nov_val

CORNER = [(0, 0), (1, 0), (0, 1)]
PRIME = 10**9 + 7


def _charge_input(rng: random.Random, kind: str):
    """Points (corner first), charge rows and heights of one seeded case."""
    raw = CORNER + [(rng.randint(-2, 3), rng.randint(-2, 3)) for _ in range(rng.randint(1, 4))]
    points = CORNER + sorted(set(lattice_points_in_hull(convex_hull(raw))) - set(CORNER))
    rows = []
    for i, (x, y) in enumerate(points[3:], 3):
        row = [1 - x - y, x, y] + [0] * (len(points) - 3)
        row[i] = -1
        rows.append(tuple(row))
    if kind == "random":
        heights = [Q(rng.randint(-(10**6), 10**6), 10**5 + 3) for _ in points]
    else:
        heights = [x * x + y * y + Q(rng.randint(1, 10**6), PRIME) for x, y in points]
    if kind == "lifted":
        corners = set(convex_hull(points))
        inner = [i for i, p in enumerate(points) if p not in corners]
        for i in rng.sample(inner, min(len(inner), rng.randint(1, 2))):
            heights[i] += rng.randint(1, 9)
    return points, ChargeMatrix(tuple(rows), len(points)), heights


def _lower_hull_at(q, lifted) -> Q:
    """The lower convex hull of the lifted points (p, v) at q: the least
    interpolated value over the segments and triangles that contain q."""
    values = []
    for (a, va), (b, vb) in itertools.combinations(lifted, 2):
        d, r = vsub(b, a), vsub(q, a)
        along, length = r[0] * d[0] + r[1] * d[1], d[0] * d[0] + d[1] * d[1]
        if cross2(d, r) == 0 and 0 <= along <= length:
            values.append(va + Q(along, length) * (vb - va))
    for (a, va), (b, vb), (c, vc) in itertools.combinations(lifted, 3):
        det = cross2(vsub(b, a), vsub(c, a))
        if det == 0:
            continue
        s = Q(cross2(vsub(q, a), vsub(c, a)), det)
        t = Q(cross2(vsub(b, a), vsub(q, a)), det)
        if s >= 0 and t >= 0 and s + t <= 1:
            values.append(va + s * (vb - va) + t * (vc - va))
    return min(values)


def _affine_fit(points, values):
    """(a, b, c) with values[i] = a x_i + b y_i + c on three affinely independent points."""
    i, j, k = next(t for t in itertools.combinations(range(len(points)), 3)
                   if cross2(vsub(points[t[1]], points[t[0]]), vsub(points[t[2]], points[t[0]])) != 0)
    (x0, y0), (x1, y1), (x2, y2) = points[i], points[j], points[k]
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    d1, d2 = values[j] - values[i], values[k] - values[i]
    a = (d1 * (y2 - y0) - d2 * (y1 - y0)) / det
    b = (d2 * (x1 - x0) - d1 * (x2 - x0)) / det
    return a, b, values[i] - a * x0 - b * y0


def test_heights_come_back_as_the_valuations_of_the_mirror():
    rng = random.Random(1603)
    counts = {"every point used": 0, "unused points": 0, "refused": 0}
    for n in range(450):
        points, q, heights = _charge_input(rng, ("convex", "lifted", "random")[n % 3])
        try:
            web = build_web(q, heights)
        except ChargeError as exc:
            assert weight_refusal(str(exc)) is not None, str(exc)
            counts["refused"] += 1
            continue
        relation = normalize_presentation(superpotential(web.diagram))
        val = {alpha: nov_val(c) for alpha, c in relation.terms}
        kernel = web.subdivision.points
        used = sorted(used_points(web.subdivision))

        # the support is the used kernel points, up to a sign and a translation,
        # and the heights minus the valuations are affine in the points (a
        # centrally symmetric support matches both signs; one must fit)
        fits = []
        for sign in (1, -1):
            shift = vsub(min(val), min((sign * kernel[i][0], sign * kernel[i][1]) for i in used))
            alpha = [(sign * x + shift[0], sign * y + shift[1]) for x, y in kernel]
            if {alpha[i] for i in used} != set(val):
                continue
            rest = [heights[i] - val[alpha[i]] for i in used]
            a, b, c = _affine_fit([kernel[i] for i in used], rest)
            if all(r == a * kernel[i][0] + b * kernel[i][1] + c for i, r in zip(used, rest)):
                fits.append((alpha, (a, b, c)))
        assert fits, (points, heights)
        alpha, (a, b, c) = fits[0]

        # a point left out lies strictly above the lower hull of the valuations
        lifted = [(alpha[i], val[alpha[i]]) for i in used]
        unused = [i for i in range(len(points)) if i not in used]
        for i in unused:
            extension = a * kernel[i][0] + b * kernel[i][1] + c
            assert heights[i] - extension > _lower_hull_at(alpha[i], lifted), (points, heights, i)

        # with every point used, each charge row pairs the valuations as the heights
        if not unused:
            for row in q.rows:
                assert sum(qa * val[alpha[i]] for i, qa in enumerate(row)) == sum(
                    qa * h for qa, h in zip(row, heights)
                ), (points, heights)
        counts["unused points" if unused else "every point used"] += 1
    assert min(counts.values()) >= 20, counts
