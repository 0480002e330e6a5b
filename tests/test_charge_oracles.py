"""The charge pipeline in integer arithmetic against the Fraction code it replaced,
the web builder against the one that found each cell's sides a second time,
and its covariance under a change of charge basis and a relabeling of the points."""

import random
from fractions import Fraction as Q

from helpers import (
    _cell_boundary_edges,
    cell_plane_oracle,
    kernel_points_oracle,
    plane_constant,
    primitive_q_oracle,
    random_lattice_polygon,
    web_from_subdivision_oracle,
)
from tropmirror.charges import (
    ChargeError,
    ChargeMatrix,
    RegularSubdivision,
    SubdivisionCell,
    build_web,
    integer_kernel_basis,
    kernel_points,
    regular_subdivision,
    web_from_subdivision,
)
from tropmirror.diagram import DiagramError, TropicalDiagram
from tropmirror.lattice import LatticeError, convex_hull, cross2, vadd, vsub

PRIME = 10**14 + 31  # the denominator of the benchmark's height perturbations


def _relations(points) -> list:
    """Charge rows of a point list: a basis of the integer relations sum_i q_i (x_i, y_i, 1) = 0."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    return [list(r) for r in integer_kernel_basis([xs, ys, [1] * len(points)], len(points))]


def _mix_rows(rng: random.Random, rows) -> list:
    """The rows after seeded GL(k, Z) row operations: additions, swaps and negations."""
    rows = [list(r) for r in rows]
    for _ in range(rng.randint(1, 8) if rows else 0):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        kind = rng.randrange(3)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return rows


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ChargeError, LatticeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _charge_cases(rng: random.Random) -> list:
    cases = []
    for _ in range(150):
        # a polygon's relations mixed by row operations; some rows doubled
        # (a basis of a sublattice of the relations has the same kernel)
        pts = random_lattice_polygon(rng)
        rows = _mix_rows(rng, _relations(pts))
        if rows and rng.random() < 0.2:
            rows[0] = [2 * a for a in rows[0]]
        cases.append(ChargeMatrix(rows, len(pts)))
    for _ in range(60):
        # random rows summing to zero: kernel bases far from the polygon
        # relations' (these need W with det -1 as well as +1)
        k = rng.randint(1, 4)
        rows = []
        for _ in range(k):
            row = [rng.randint(-3, 3) for _ in range(k + 3)]
            row[rng.randrange(k + 3)] -= sum(row)
            rows.append(row)
        cases.append(ChargeMatrix(rows, k + 3))
    for _ in range(20):
        # one relation dropped: corank 4
        pts = random_lattice_polygon(rng)
        rows = _mix_rows(rng, _relations(pts))
        if rows:
            rows.pop(rng.randrange(len(rows)))
        cases.append(ChargeMatrix(rows, len(pts)))
    for _ in range(20):
        # one more row summing to zero: corank 2, or rank-deficient if it is
        # a rational combination of the others
        pts = random_lattice_polygon(rng)
        extra = [rng.randint(-3, 3) for _ in pts]
        extra[-1] -= sum(extra)
        cases.append(ChargeMatrix(_mix_rows(rng, _relations(pts) + [extra]), len(pts)))
    for _ in range(20):
        # a combination of two rows appended: rank-deficient
        pts = random_lattice_polygon(rng, 12)
        while len(pts) < 5:
            pts = random_lattice_polygon(rng, 12)
        rows = _relations(pts)
        rows.append([a - 2 * b for a, b in zip(rows[0], rows[-1])])
        cases.append(ChargeMatrix(_mix_rows(rng, rows), len(pts)))
    for _ in range(20):
        # a point listed twice: repeated lattice points
        pts = random_lattice_polygon(rng, 11)
        pts.insert(rng.randrange(len(pts) + 1), rng.choice(pts))
        cases.append(ChargeMatrix(_mix_rows(rng, _relations(pts)), len(pts)))
    return cases


def test_kernel_points_match_the_oracle():
    cases = _charge_cases(random.Random(81))
    assert len(cases) >= 250
    seen: dict = {}
    for q in cases:
        got = _outcome(kernel_points, q)
        assert got == _outcome(kernel_points_oracle, q), q
        key = got.split(" has corank")[0] if isinstance(got, str) else "points"
        seen[key] = seen.get(key, 0) + 1
        if not isinstance(got, str):
            # the points satisfy the charges
            for row in q.rows:
                assert sum(c * x for c, (x, _) in zip(row, got)) == 0
                assert sum(c * y for c, (_, y) in zip(row, got)) == 0
    # every refusal occurs, with the same message on both sides
    assert seen["points"] >= 200
    assert seen["ChargeError: charge matrix"] >= 30  # corank 2 and 4
    assert seen["ChargeError: charge matrix is rank-deficient"] >= 20
    assert seen["ChargeError: charge data produces repeated lattice points"] >= 20


def _rational(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Q(rng.randint(-10**6, 10**6), PRIME)
    return Q(rng.randint(-40, 40), rng.randint(1, 12))


def test_primitive_q_matches_the_oracle():
    rng = random.Random(82)
    pairs = [((0, 0), (Q(3, PRIME), Q(-6, PRIME))), ((Q(1, 2), 0), (Q(6, 4), Q(0, 5)))]
    while len(pairs) < 520:
        p = tuple(_rational(rng) for _ in range(2))
        v = tuple(_rational(rng) for _ in range(2))
        if rng.random() < 0.2:
            # a rational multiple of a primitive vector: the multiple is divided out
            s = Q(rng.randint(1, 50), rng.choice((1, 7, PRIME)))
            v = tuple(s * x for x in v)
        if any(v):
            pairs.append((p, vadd(p, v)))
    for p, q in pairs:
        (anchor, direction, length), = TropicalDiagram(2, (p, q), ((0, 1),)).segments
        v = vsub(q, p)
        assert anchor == p and direction == primitive_q_oracle(v), (p, q)
        assert length > 0 and tuple(length * c for c in direction) == v, (p, q)


def _planes_cases(rng: random.Random) -> list:
    p2 = [(x, y) for x in range(6) for y in range(6 - x)]
    cases = [(p2, [x * x + x * y + y * y + Q(rng.choice((-1, 1)) * rng.randint(5 * 10**5, 10**6), PRIME)
                   for x, y in p2])]
    for _ in range(60):
        pts = random_lattice_polygon(rng)
        kind = rng.randrange(3)
        if kind == 0:
            hs = [x * x + y * y + Q(rng.randint(-(10**6), 10**6), PRIME) for x, y in pts]
        elif kind == 1:
            hs = [x * x + y * y for x, y in pts]
        else:
            hs = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in pts]
        cases.append((pts, hs))
    return cases


def test_cell_planes_match_the_oracle_and_support_the_lift():
    # larger than the brute-force oracle can take: each cell's plane against
    # the Fraction interpolation, and every point on or above it, exactly the
    # cell's points on it
    non_simplicial = 0
    for pts, hs in _planes_cases(random.Random(83)):
        sub = regular_subdivision(pts, hs)
        hts = [Q(h) for h in hs]
        non_simplicial += not sub.is_simplicial()
        for cell in sub.cells:
            assert cell == cell_plane_oracle(sub.points, hts, cell.indices)
            (gx, gy), c0 = cell.gradient, plane_constant(sub, cell)
            vals = [gx * x + gy * y + c0 for x, y in sub.points]
            assert all(v <= h for v, h in zip(vals, hts))
            assert tuple(t for t, (v, h) in enumerate(zip(vals, hts)) if v == h) == cell.indices
    assert non_simplicial >= 10


def _hand_built(points, cells) -> RegularSubdivision:
    """A subdivision record with the given cells, each with its own gradient (i, 0)."""
    zero = (Q(0),) * len(points)
    return RegularSubdivision(points, zero, tuple(SubdivisionCell(c, (Q(i), Q(0))) for i, c in enumerate(cells)))


HAND_BUILT = [
    # test_charges.py: two cells of one plane, so two web vertices coincide
    RegularSubdivision(
        ((0, 0), (1, 0), (0, 1), (1, 1)),
        (Q(0),) * 4,
        (SubdivisionCell((0, 1, 2), (Q(0), Q(0))), SubdivisionCell((1, 2, 3), (Q(0), Q(0)))),
    ),
    # one side owned by three cells, of length 1 and of length 2
    _hand_built(((0, 0), (1, 0), (0, 1), (0, -1), (1, 1)), [(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
    _hand_built(((0, 0), (2, 0), (0, 1), (0, -1), (1, 1)), [(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
]


def _web_or_refusal(build, sub, allow_weighted):
    try:
        return build(sub, allow_weighted)
    except (ChargeError, DiagramError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _has_split_side(sub) -> bool:
    """Does some cell have a point on a side strictly between two of its corners?"""
    for cell in sub.cells:
        corners = convex_hull([sub.points[i] for i in cell.indices])
        if len(_cell_boundary_edges(sub, cell)) > len(corners):
            return True
    return False


def test_web_from_subdivision_matches_the_oracle():
    # coarse lifts (zero, small integer and rational heights) give cells with
    # interior points and split sides; every diagram and refusal text agrees
    rng = random.Random(2323)
    subs = list(HAND_BUILT)
    for heights in (
        lambda n: [0] * n,
        lambda n: [rng.randint(-2, 2) for _ in range(n)],
        lambda n: [Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)],
    ):
        for _ in range(300):
            pts = random_lattice_polygon(rng)
            subs.append(regular_subdivision(pts, heights(len(pts))))
    split = 0
    for sub in subs:
        split += not sub.is_simplicial() and _has_split_side(sub)
        for allow_weighted in (False, True):
            expected = _web_or_refusal(web_from_subdivision_oracle, sub, allow_weighted)
            assert _web_or_refusal(web_from_subdivision, sub, allow_weighted) == expected
    assert split >= 250


def _unimodular_affine_map(src, dst):
    """The linear part L of the affine map taking src[i] to dst[i]; asserts it is integral and unimodular."""
    o = src[0]
    i = next(i for i, p in enumerate(src) if p != o)
    j = next(j for j, p in enumerate(src) if cross2(vsub(src[i], o), vsub(p, o)) != 0)
    u, v = vsub(src[i], o), vsub(src[j], o)
    u2, v2 = vsub(dst[i], dst[0]), vsub(dst[j], dst[0])
    det = cross2(u, v)
    # L (u | v) = (u2 | v2), with (u | v)^-1 = (v1, -v0; -u1, u0) / det
    lin = [(Q(u2[r] * v[1] - v2[r] * u[1], det), Q(v2[r] * u[0] - u2[r] * v[0], det)) for r in range(2)]
    assert all(c.denominator == 1 for row in lin for c in row), lin
    assert abs(cross2(lin[0], lin[1])) == 1, lin
    for p, q in zip(src, dst):
        d = vsub(p, o)
        assert vsub(q, dst[0]) == (lin[0][0] * d[0] + lin[0][1] * d[1], lin[1][0] * d[0] + lin[1][1] * d[1])
    return lin


def test_charge_input_covariance():
    # GL(k, Z) row operations on the charges, and one permutation of the
    # columns and the heights together, change the points by one unimodular
    # affine map and the cells by the relabeling, and nothing else
    rng = random.Random(84)
    seen = {"web": 0, "non-simplicial": 0, "refused": 0}
    for trial in range(80):
        pts = random_lattice_polygon(rng)
        if trial % 10 == 9:
            pts.insert(rng.randrange(len(pts) + 1), rng.choice(pts))  # refused: repeated points
        rows = _relations(pts)
        kind = rng.randrange(3)
        if kind == 0:
            hs = [x * x + y * y + Q(rng.randint(-(10**6), 10**6), PRIME) for x, y in pts]
        elif kind == 1:
            hs = [x * x + y * y for x, y in pts]
        else:
            hs = [rng.randint(0, 2) for _ in pts]
        allow = rng.random() < 0.5
        perm = list(range(len(pts)))
        rng.shuffle(perm)
        q0 = ChargeMatrix(rows, len(pts))
        q1 = ChargeMatrix([[r[perm[j]] for j in range(len(pts))] for r in _mix_rows(rng, rows)], len(pts))
        h1 = [hs[perm[j]] for j in range(len(pts))]

        p0, p1 = _outcome(kernel_points, q0), _outcome(kernel_points, q1)
        if isinstance(p0, str):
            assert p1 == p0
        else:
            _unimodular_affine_map([p0[perm[j]] for j in range(len(pts))], p1)
        w0, w1 = _outcome(build_web, q0, hs, allow), _outcome(build_web, q1, h1, allow)
        if isinstance(w0, str):
            assert w1 == w0
            seen["refused"] += 1
            continue
        assert w1.subdivision.is_simplicial() == w0.subdivision.is_simplicial()
        assert len(w1.diagram.vertices) == len(w0.diagram.vertices)
        assert len(w1.diagram.edges) == len(w0.diagram.edges)
        assert len(w1.diagram.rays) == len(w0.diagram.rays)
        cells0 = {frozenset(c.indices) for c in w0.subdivision.cells}
        cells1 = {frozenset(perm[j] for j in c.indices) for c in w1.subdivision.cells}
        assert cells1 == cells0
        seen["web" if w0.subdivision.is_simplicial() else "non-simplicial"] += 1
    assert min(seen.values()) >= 8, seen
