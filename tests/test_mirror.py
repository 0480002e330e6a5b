import itertools
import random
from fractions import Fraction as Q

import pytest

from helpers import (
    _affine_on_root_cell,
    _lower_hull_cells_1d,
    charge_ladder_webs,
    interior_point_near_vertex,
    is_unimodular,
    normalize_oracle,
    random_smooth_web,
    replace,
    shipped_diagrams,
    superpotential_coefficient,
    superpotential_support,
    winding_degree,
)
from tropmirror.charges import ChargeMatrix, build_web, regular_subdivision
from tropmirror.diagram import TropicalDiagram, dual_subdivision, face_heights
from tropmirror.lattice import vsub
from tropmirror.mirror import (
    CorrectionMap,
    MirrorError,
    Superpotential,
    normalize_presentation,
    presentation_to_json,
    relation_text,
    superpotential,
    superpotential_text,
)
from tropmirror.novikov import nov, nov_val


def c3():
    return TropicalDiagram(2, ((Q(0), Q(0)),), (), ((0, (1, 0)), (0, (0, 1)), (0, (-1, -1))))


def focus_focus():
    return TropicalDiagram(1, ((Q(0),),))


def conifold():
    return build_web(ChargeMatrix(((1, 1, -1, -1),), 4), [0, 1, 0, 0]).diagram


# the distance of a dual vertex from a base point is the height of its face,
# read by face id; the lattice points say which vertex each face is


def test_face_distance_c3():
    b = (Q(-1, 3), Q(-1, 3))
    assert dual_subdivision(c3()).lattice_points == ((0, 1), (0, 0), (1, 0))
    # both non-root vertices are equidistant; the artifact's sign convention
    # makes the heights the lifting heights, negative when b is past the wall
    assert face_heights(c3(), b) == {0: Q(-1, 3), 1: 0, 2: Q(-1, 3)}


def test_face_distance_translation_rule():
    diag = conifold()
    b = (Q(2), Q(3))
    c = (Q(1, 2), Q(-5))
    b2 = tuple(x + y for x, y in zip(b, c))
    before, after = face_heights(diag, b), face_heights(diag, b2)
    for f, alpha in enumerate(dual_subdivision(diag).lattice_points):
        assert after[f] - before[f] == alpha[0] * c[0] + alpha[1] * c[1]  # root at the origin


def test_face_distance_d1():
    diag = focus_focus()
    ell = Q(2)
    assert dual_subdivision(diag).lattice_points == ((1,), (0,))
    # distance ell to the left of the critical value
    assert face_heights(diag, (-ell,)) == {0: -ell, 1: 0}
    assert face_heights(diag, (ell,)) == {0: ell, 1: 0}  # base in the root chamber


def test_superpotential_c3():
    g = superpotential(c3())
    assert superpotential_text(g) == "1 + u1 + u2"
    assert set(superpotential_support(g)) == {(0, 0), (1, 0), (0, 1)}


def test_superpotential_focus_focus():
    g = superpotential(focus_focus())
    assert superpotential_text(g) == "1 + u"


def test_superpotential_conifold():
    g = normalize_presentation(superpotential(conifold()))
    assert relation_text(g) == "x*y - (1 + u1 + u2 + t^{1}*u1*u2)"


def test_conifold_kahler_length_scales():
    # a longer bounded edge gives a larger t-power
    web = build_web(ChargeMatrix(((1, 1, -1, -1),), 4), [0, 3, 0, 0]).diagram
    g = normalize_presentation(superpotential(web))
    assert relation_text(g) == "x*y - (1 + u1 + u2 + t^{3}*u1*u2)"


def test_presentation_gradings():
    g = superpotential(c3())
    assert presentation_to_json(g)["gradings"] == {"u1": 0, "u2": 0, "x": 1, "y": -1}
    assert winding_degree(g, [("x", 1), ("y", 1)]) == 0
    assert winding_degree(g, [("x", 2), ("u1", 7), ("y", 1)]) == 1


def test_corrections_require_positive_valuation():
    with pytest.raises(MirrorError, match="positive valuation"):
        CorrectionMap((((0, 0), nov([(0, 1)])),))
    with pytest.raises(MirrorError, match="positive valuation"):
        CorrectionMap((((0, 0), nov([(-1, 2)])),))


def test_corrections_enter_coefficients():
    cm = CorrectionMap((((0, 0), nov([(2, 5)])),))
    g = superpotential(c3(), corrections=cm)
    coeff = superpotential_coefficient(g, (0, 0))
    assert coeff.terms == ((Q(0), Q(1)), (Q(2), Q(5)))
    assert nov_val(superpotential_coefficient(g, (1, 0))) == 0


def test_corrections_unknown_vertex_rejected():
    cm = CorrectionMap((((7, 7), nov([(1, 1)])),))
    with pytest.raises(MirrorError, match="not in the dual graph"):
        superpotential(c3(), corrections=cm)


def test_corrections_repeated_vertex_rejected():
    with pytest.raises(MirrorError, match=r"repeated correction vertex \(0, 0\)"):
        CorrectionMap((((0, 0), nov([(2, 3)])), ((1, 0), nov([(1, 1)])), ((0, 0), nov([(1, 5)]))))


def test_normalize_idempotent():
    for diag in (c3(), conifold(), focus_focus()):
        g = normalize_presentation(superpotential(diag, base=(Q(3),) * diag.dim))
        assert normalize_presentation(g) == g


def test_normalize_refuses_a_vanished_coefficient_and_a_valuation_below_the_slope():
    # superpotential never builds either; a hand-built one is refused with the reason
    g = Superpotential(1, (((0,), nov([(0, 1)])), ((1,), nov())), Q(10), (Q(0),))
    with pytest.raises(MirrorError) as info:
        normalize_presentation(g)
    assert str(info.value) == "superpotential coefficient vanished"
    # u has valuation 0, but the slope asks to take t^1 from it
    g = Superpotential(1, (((0,), nov([(0, 1)])), ((1,), nov([(0, 1)]))), Q(10), (Q(1),))
    with pytest.raises(MirrorError) as info:
        normalize_presentation(g)
    assert str(info.value) == "normalization produced a negative valuation"


def test_relation_text_writes_constant_and_scaled_coefficients():
    terms = (((0,), nov([(0, 3)])), ((1,), nov([(Q(1, 2), Q(2, 3))])), ((2,), nov([(1, 1), (2, 1)])))
    g = Superpotential(1, terms, Q(10), (Q(0),))
    assert relation_text(g) == "x*y - (3 + 2/3*t^{1/2}*u + (1*t^{1} + 1*t^{2})*u^2)"


def test_normalize_absorbs_overall_scale():
    from tropmirror.novikov import nov_shift

    g = superpotential(c3())
    scaled = replace(g, terms=tuple((a, nov_shift(5, c)) for a, c in g.terms))
    assert normalize_presentation(scaled) == normalize_presentation(g)


def test_base_point_covariance_on_random_webs():
    rng = random.Random(51)
    for _ in range(8):
        web = random_smooth_web(rng)
        b1 = interior_point_near_vertex(web, rng)
        b2 = interior_point_near_vertex(web, rng)
        g1 = normalize_presentation(superpotential(web, base=b1))
        g2 = normalize_presentation(superpotential(web, base=b2))
        assert g1 == g2


def test_support_equals_dual_vertices():
    rng = random.Random(52)
    for _ in range(8):
        web = random_smooth_web(rng)
        g = superpotential(web)
        assert set(superpotential_support(g)) == set(dual_subdivision(web).lattice_points)


def test_normalized_coefficients_are_powers_of_t():
    rng = random.Random(53)
    for _ in range(6):
        web = random_smooth_web(rng)
        g = normalize_presentation(superpotential(web, base=(Q(1, 7), Q(2, 7))))
        for alpha, c in g.terms:
            assert len(c.terms) == 1
            assert c.terms[0][1] == 1  # coefficient exactly 1 * t^{f}
            assert c.terms[0][0] >= 0


def test_newton_polygon_unimodularly_triangulated():
    # the exponents of a normalized g for a smooth web admit the regular
    # unimodular triangulation induced by the t-powers
    rng = random.Random(54)
    for _ in range(5):
        web = random_smooth_web(rng)
        g = normalize_presentation(superpotential(web))
        support = [a for a, _ in g.terms]
        vals = [nov_val(c) for _, c in g.terms]
        sub = regular_subdivision(support, vals)
        assert sub.is_simplicial()
        assert is_unimodular(sub)


def test_truncation_must_be_positive():
    with pytest.raises(MirrorError, match="positive"):
        superpotential(c3(), truncation=0)


def test_presentation_json_shape():
    data = presentation_to_json(normalize_presentation(superpotential(focus_focus())))
    assert data["relation"] == "x*y - (1 + u)"
    assert data["generators"] == ["u", "u^-1", "x", "y"]
    assert data["gradings"] == {"u": 0, "x": 1, "y": -1}


def _scan_hull_affine_1d(support, vals, root_index, dim=1):
    """The former 1-D branch of _affine_on_root_cell, on the monotone-scan hull cells."""
    containing = [c for c in _lower_hull_cells_1d(support, vals) if root_index in c]
    if not containing:
        raise MirrorError("root vertex is not on the lower hull")
    cell = min(containing, key=lambda c: tuple(support[i] for i in c))
    i, j = cell[0], cell[-1]
    x0, x1 = support[i][0], support[j][0]
    slope = (vals[j] - vals[i]) / (x1 - x0)
    return lambda a: vals[i] + slope * (a[0] - x0)


def _root_affine_outcome(rule, support, vals, root_index):
    """The affine values on the support, or the refusal message."""
    try:
        ell = rule(support, vals, root_index, 1)
    except MirrorError as exc:
        return str(exc)
    return [ell(a) for a in support]


def test_slope_rule_matches_the_monotone_scan_hull():
    # inputs as normalize_presentation builds them: raw d=1 superpotentials
    # in every gauge, support sorted, the root at 0
    rng = random.Random(1861)
    cases = []
    for _ in range(200):
        xs = list({Q(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))})
        rng.shuffle(xs)
        diag = TropicalDiagram(1, tuple((x,) for x in xs))
        base = (Q(rng.randint(-60, 60), rng.randint(1, 9)),)
        root = rng.choice((None, rng.randrange(len(xs) + 1)))
        g = superpotential(diag, base, root_face=root, sign=rng.choice((1, -1)))
        support = [a for a, _ in g.terms]
        cases.append((support, [nov_val(c) for _, c in g.terms], support.index((0,))))
    # small integer values, so that the root often lies inside a hull cell
    for _ in range(200):
        support = [(x,) for x in sorted(rng.sample(range(-6, 7), rng.randint(1, 6)))]
        root_index = rng.randrange(len(support))
        support = [vsub(a, support[root_index]) for a in support]
        cases.append((support, [Q(rng.randint(0, 4)) for _ in support], root_index))
    outcomes = []
    for support, vals, root_index in cases:
        fast = _root_affine_outcome(_affine_on_root_cell, support, vals, root_index)
        assert fast == _root_affine_outcome(_scan_hull_affine_1d, support, vals, root_index)
        outcomes.append(fast)
    refusals = sum(isinstance(o, str) for o in outcomes)
    assert refusals >= 40 and len(outcomes) - refusals >= 200
    assert "root vertex is not on the lower hull" in outcomes


def test_normalization_matches_the_hull_oracle():
    # the relation seen from the root cell's web vertex is the one the second
    # lower hull of the support and its t-exponents gave, in every gauge
    rng = random.Random(1505)
    webs = shipped_diagrams() + [TropicalDiagram(1, ((Q(0),), (Q(3, 2),), (Q(-2),)))]
    webs += [random_smooth_web(rng) for _ in range(150)]
    webs += charge_ladder_webs(1) + charge_ladder_webs(2)
    cases = 0
    for web in webs:
        last = len(web.dual.lattice_points) - 1
        for sign, root, base in itertools.product((1, -1), (None, 0, last), (None, (Q(2, 7),) * web.dim)):
            raw = superpotential(web, base, root_face=root, sign=sign)
            assert normalize_presentation(raw) == normalize_oracle(raw)
            cases += 1
    assert cases == 2088
