import random
from fractions import Fraction as Q

import pytest

from helpers import brute_force_subdivision, is_unimodular, random_lattice_polygon, used_points
from tropmirror.charges import (
    ChargeError,
    ChargeMatrix,
    RegularSubdivision,
    SubdivisionCell,
    build_web,
    charges_from_json,
    integer_kernel_basis,
    kernel_points,
    regular_subdivision,
    web_from_subdivision,
)
from tropmirror.diagram import DiagramError, dual_subdivision, is_smooth, validate
from tropmirror.lattice import cross2, vsub


CONIFOLD = ChargeMatrix(((1, 1, -1, -1),), 4)
KP2 = ChargeMatrix(((1, 1, 1, -3),), 4)
KP1P1 = ChargeMatrix(((-2, 1, 1, 0, 0), (-2, 0, 0, 1, 1)), 5)


def test_charge_matrix_invariants():
    with pytest.raises(ChargeError, match="sum to zero"):
        ChargeMatrix(((1, 1, -1),), 3)
    with pytest.raises(ChargeError, match=r"^charge row dimension mismatch: \(1, -1\)$"):
        ChargeMatrix(((1, -1),), 3)


def test_kernel_basis_annihilated():
    for q in (CONIFOLD, KP2, KP1P1):
        basis = integer_kernel_basis(q.rows, q.width)
        assert len(basis) == 3
        for vec in basis:
            for row in q.rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0


def test_kernel_points_satisfy_charges():
    for q in (CONIFOLD, KP2, KP1P1):
        pts = kernel_points(q)
        assert len(pts) == q.width
        for row in q.rows:
            total = (0, 0)
            for coeff, p in zip(row, pts):
                total = (total[0] + coeff * p[0], total[1] + coeff * p[1])
            assert total == (0, 0)


def test_conifold_points_are_a_unit_square():
    pts = kernel_points(CONIFOLD)
    # up to a unimodular change the four points form the unit square:
    # translating one corner to the origin, two of the differences form a
    # determinant +-1 basis and the fourth point is their sum
    for origin in pts:
        rest = [vsub(p, origin) for p in pts if p != origin]
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                k = 3 - i - j
                if abs(cross2(rest[i], rest[j])) == 1 and (
                    rest[i][0] + rest[j][0],
                    rest[i][1] + rest[j][1],
                ) == rest[k]:
                    return
    pytest.fail("kernel points are not a unimodular image of the unit square")


def test_rank_deficient_rejected():
    q = ChargeMatrix(((1, 1, -1, -1), (2, 2, -2, -2)), 4)
    with pytest.raises(ChargeError, match="rank"):
        kernel_points(q)


def test_conifold_web_generic_height():
    web = build_web(CONIFOLD, [0, 1, 0, 0])
    assert len(web.diagram.vertices) == 2
    assert len(web.diagram.edges) == 1
    assert len(web.diagram.rays) == 4
    assert validate(web.diagram).ok
    assert is_smooth(web.diagram)
    dual = dual_subdivision(web.diagram)
    assert set(dual.lattice_points) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_conifold_zero_heights_degenerate():
    with pytest.raises(ChargeError, match="degenerate Kähler parameters"):
        build_web(CONIFOLD, [0, 0, 0, 0])


def test_allow_singular_returns_subdivision_for_inspection():
    web = build_web(CONIFOLD, [0, 0, 0, 0], allow_singular=True)
    assert not web.subdivision.is_simplicial()
    assert not is_unimodular(web.subdivision)
    assert len(web.diagram.vertices) == 1  # a single 4-valent vertex
    assert "trivalent" in validate(web.diagram).failed_axioms()


def test_empty_charges_give_c3():
    q = ChargeMatrix((), 3)
    web = build_web(q, [0, 0, 0])
    assert len(web.diagram.vertices) == 1
    assert len(web.diagram.rays) == 3
    assert is_smooth(web.diagram)
    dual = dual_subdivision(web.diagram)
    assert set(dual.lattice_points) == {(0, 0), (1, 0), (0, 1)}


def test_kp2_web():
    web = build_web(KP2, [1, 1, 1, 0])
    assert validate(web.diagram).ok
    assert is_smooth(web.diagram)
    assert len(web.diagram.vertices) == 3
    assert len(web.diagram.edges) == 3
    assert len(web.diagram.rays) == 3


def test_kp1p1_web():
    web = build_web(KP1P1, [0, 1, 1, 1, 1])
    assert validate(web.diagram).ok
    assert is_smooth(web.diagram)
    assert len(web.diagram.vertices) == 4
    assert len(web.diagram.rays) == 4


def test_random_generic_heights_validate():
    rng = random.Random(31)
    hits = 0
    while hits < 15:
        heights = [Q(rng.randint(-400, 400), 100) for _ in range(4)]
        try:
            web = build_web(CONIFOLD, heights)
        except ChargeError:
            continue
        report = validate(web.diagram)
        assert report.failed_axioms() == []
        hits += 1


def _translate_to_lex_min(points):
    base = min(points)
    return {vsub(p, base) for p in points}


def test_smoothness_three_way_agreement():
    # web smooth <=> dual triangles unimodular <=> generating subdivision unimodular
    rng = random.Random(32)
    for q, m in ((CONIFOLD, 4), (KP2, 4), (KP1P1, 5)):
        for _ in range(5):
            heights = [Q(rng.randint(-300, 300), 97) for _ in range(m)]
            try:
                web = build_web(q, heights)
            except ChargeError:
                continue
            sub_unimodular = is_unimodular(web.subdivision)
            assert is_smooth(web.diagram) == sub_unimodular
            if sub_unimodular and used_points(web.subdivision) == set(range(m)):
                # the reconstructed dual is the generating point set up to translation
                dual = dual_subdivision(web.diagram)
                assert _translate_to_lex_min(dual.lattice_points) == _translate_to_lex_min(
                    web.subdivision.points
                )


def test_charges_json():
    q, heights = charges_from_json({"charges": [[1, 1, -1, -1]], "heights": ["0", "1", "0", "0"]})
    assert q == CONIFOLD
    assert heights == (0, 1, 0, 0)
    q2, h2 = charges_from_json({"charges": [], "heights": ["0", "0", "0"]})
    assert q2.width == 3


def test_lower_faces_have_distinct_gradients():
    # the web's vertices are minus the gradients, so they never coincide for
    # a subdivision that regular_subdivision built
    rng = random.Random(77)
    for _ in range(40):
        pts = random_lattice_polygon(rng)
        sub = regular_subdivision(pts, [Q(rng.randint(-50, 50), rng.randint(1, 7)) for _ in pts])
        grads = [c.gradient for c in sub.cells]
        assert len(set(grads)) == len(grads)


def test_hand_built_subdivision_with_a_shared_gradient_is_refused():
    # two cells of one plane: the web would put both vertices at the origin
    cells = (SubdivisionCell((0, 1, 2), (Q(0), Q(0))), SubdivisionCell((1, 2, 3), (Q(0), Q(0))))
    sub = RegularSubdivision(((0, 0), (1, 0), (0, 1), (1, 1)), (Q(0),) * 4, cells)
    with pytest.raises(DiagramError, match="^two vertices coincide$"):
        web_from_subdivision(sub)


def test_long_edge_polygon_web():
    # polygon with a length-2 boundary edge: parallel rays, half-plane cone
    pts = [(0, 0), (1, 0), (2, 0), (0, 1)]
    hs = [Q(0), Q(-1, 2), Q(1, 10), Q(0)]
    sub = regular_subdivision(pts, hs)
    assert is_unimodular(sub)
    web = web_from_subdivision(sub)
    assert validate(web).ok and is_smooth(web)
    dirs = [d for _, d in web.rays]
    assert len(dirs) != len(set(dirs))  # two parallel rays


def test_singular_cell_with_interior_point():
    # zero heights on KP2: one polygonal cell whose interior point must not
    # produce boundary edges; the inspection web is the coarse 3-ray vertex
    web = build_web(ChargeMatrix(((1, 1, 1, -3),), 4), [0, 0, 0, 0], allow_singular=True)
    assert len(web.diagram.vertices) == 1
    assert len(web.diagram.rays) == 3
    assert not is_unimodular(web.subdivision)
    report = validate(web.diagram)
    assert not {"trivalent", "balanced"} & set(report.failed_axioms())
    assert not is_smooth(web.diagram)


def test_singular_conifold_four_valent():
    web = build_web(CONIFOLD, [0, 0, 0, 0], allow_singular=True)
    assert len(web.diagram.vertices) == 1
    assert len(web.diagram.rays) == 4
    dirs = sorted(d for _, d in web.diagram.rays)
    assert dirs == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def _subdivision_or_error(fn, points, heights):
    try:
        return fn(points, heights)
    except ChargeError as exc:
        return f"ChargeError: {exc}"


def _oracle_cases():
    rng = random.Random(33)
    cases = []
    for _ in range(40):
        # sparse subsets of small grids with integer heights: many coplanar lifts
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        grid = [(x, y) for x in range(w + 1) for y in range(h + 1)]
        pts = rng.sample(grid, rng.randint(3, min(len(grid), 10)))
        cases.append((pts, [rng.randint(-2, 2) for _ in pts]))
    for _ in range(40):
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        grid = [(x, y) for x in range(w + 1) for y in range(h + 1)]
        pts = rng.sample(grid, rng.randint(3, min(len(grid), 12)))
        cases.append((pts, [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in pts]))
    for _ in range(10):
        # all collinear: both sides must refuse with the same message
        step = rng.choice([(1, 0), (0, 1), (1, 1), (2, -1), (1, 3)])
        origin = (rng.randint(-3, 3), rng.randint(-3, 3))
        ks = rng.sample(range(-4, 5), rng.randint(3, 6))
        pts = [(origin[0] + k * step[0], origin[1] + k * step[1]) for k in ks]
        cases.append((pts, [rng.randint(-3, 3) for _ in pts]))
    for _ in range(30):
        # the polygons of random_smooth_web, with its perturbed heights, with
        # cocircular heights (cells with many points) and with flat heights
        pts = random_lattice_polygon(rng)
        kind = rng.randrange(3)
        if kind == 0:
            hs = [Q(x * x + y * y) + Q(rng.randint(-(10**6), 10**6), 10**8) for x, y in pts]
        elif kind == 1:
            hs = [x * x + y * y for x, y in pts]
        else:
            hs = [rng.choice([0, 1]) for _ in pts]
        cases.append((pts, hs))
    cases.append(([(0, 0), (1, 0), (0, 1)], [0, 0, 0]))
    cases.append(([(0, 0), (1, 0)], [0, 0]))
    cases.append(([(0, 0), (1, 0), (0, 1)], [0, 0]))
    return cases


def test_regular_subdivision_matches_brute_force_oracle():
    cases = _oracle_cases()
    assert len(cases) >= 100
    refused = non_simplicial = 0
    for pts, hs in cases:
        fast = _subdivision_or_error(regular_subdivision, pts, hs)
        assert fast == _subdivision_or_error(brute_force_subdivision, pts, hs), (pts, hs)
        if isinstance(fast, str):
            refused += 1
        elif not fast.is_simplicial():
            non_simplicial += 1
    # the degenerate shapes really occur in the sample
    assert refused >= 12 and non_simplicial >= 20


def test_regular_subdivision_p2_degree_10():
    pts = [(x, y) for x in range(11) for y in range(11 - x)]
    sub = regular_subdivision(pts, [x * x + x * y + y * y for x, y in pts])
    assert len(pts) == 66
    assert sub.is_simplicial() and len(sub.cells) == 100


def test_regular_subdivision_rejects_repeated_points():
    with pytest.raises(ChargeError, match=r"repeated point \(0, 0\) at indices 0, 3"):
        regular_subdivision([(0, 0), (1, 0), (0, 1), (0, 0)], [0, 0, 0, 1])
