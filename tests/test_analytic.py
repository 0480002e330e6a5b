import itertools
import json
import random
from fractions import Fraction as Q

import pytest

from helpers import ConeKind, IntegralCone, box, cone_family_converges, dual_vertex_cone, flux_monomial
from tropmirror import analytic
from tropmirror.analytic import (
    AnalyticError,
    AnalyticSeries,
    Monomial,
    WallTransformation,
    eval_series,
    expo_val_on_box,
    focus_focus_demo,
    series,
    series_eq_mod,
    series_from_json,
    series_mul,
    series_to_json,
    wall_cross,
)
from tropmirror.cli import run
from tropmirror.diagram import TropicalDiagram, dual_subdivision
from tropmirror.novikov import nov, nov_val

ONE = nov([(0, 1)])
BOX_P = box((Q(1, 4), 2), (Q(1, 4), 2))


def monomial_val_on_box(m: Monomial, b) -> Q:
    """val(c) + min over the box of <u, x>, as the wall-crossing code reads it."""
    return nov_val(m.coeff) + expo_val_on_box(m.expo, b)


def test_monomial_val_on_box_examples():
    b01 = box((0, 1), (0, 1))
    assert monomial_val_on_box(Monomial(ONE, (1, 0)), b01) == 0
    assert monomial_val_on_box(Monomial(nov([(2, 1)]), (-1, 0)), b01) == 1
    assert monomial_val_on_box(Monomial(ONE, (1, 1)), box((-1, 0), (-1, 0))) == -2


def test_monomial_val_against_dense_sampling():
    rng = random.Random(61)
    for _ in range(20):
        expo = (rng.randint(-4, 4), rng.randint(-4, 4))
        c = nov([(Q(rng.randint(-5, 10), 3), 1)])
        lo1, lo2 = Q(rng.randint(-6, 2)), Q(rng.randint(-6, 2))
        b = box((lo1, lo1 + rng.randint(1, 4)), (lo2, lo2 + rng.randint(1, 4)))
        m = Monomial(c, expo)
        val = monomial_val_on_box(m, b)
        # dense rational grid: 10x10 samples; the corner minimum must match
        samples = []
        (a1, b1), (a2, b2) = b.intervals
        for i in range(11):
            for j in range(11):
                x = (a1 + (b1 - a1) * Q(i, 10), a2 + (b2 - a2) * Q(j, 10))
                samples.append(c.terms[0][0] + expo[0] * x[0] + expo[1] * x[1])
        assert val == min(samples)


def test_box_valuation_is_the_least_corner():
    # min over the box of a linear form, against every corner of the box
    rng = random.Random(1701)
    points = 0
    for _ in range(300):
        dim = rng.randint(1, 3)
        intervals = []
        for _ in range(dim):
            lo = Q(rng.randint(-30, 30), rng.randint(1, 6))
            hi = lo if rng.random() < 0.3 else lo + Q(rng.randint(1, 40), rng.randint(1, 6))
            intervals.append((lo, hi))
            points += lo == hi
        b = box(*intervals)
        expo = tuple(rng.choice((0, rng.randint(-5, 5))) for _ in range(dim))
        corners = itertools.product(*b.intervals)
        want = min(sum(u * x for u, x in zip(expo, corner)) for corner in corners)
        assert expo_val_on_box(expo, b) == want, (expo, b)
    assert points >= 100


def test_cone_family_converges_examples():
    quad = IntegralCone((0, 0), ((1, 0), (0, 1)))
    assert cone_family_converges((0, 0), quad, box((1, 2), (1, 2)))
    left = IntegralCone((0, 0), ((-1, 0),))
    assert not cone_family_converges((0, 0), left, box((1, 2), (1, 2)))
    full = IntegralCone((0, 0), (), ConeKind.FULL_PLANE)
    with pytest.raises(AnalyticError, match="cannot converge"):
        cone_family_converges((0, 0), full, box((1, 2), (1, 2)))


def test_c3_vertex_cones_converge_over_their_faces():
    diag = TropicalDiagram(2, ((Q(0), Q(0)),), (), ((0, (1, 0)), (0, (0, 1)), (0, (-1, -1))))
    dual = dual_subdivision(diag)
    for f in range(len(dual.lattice_points)):
        cone = dual_vertex_cone(dual, f)
        g1, g2 = cone.generators
        # a box deep in the face: solve <g1,x> = <g2,x> = 8
        det = g1[0] * g2[1] - g1[1] * g2[0]
        x0 = (Q(8 * (g2[1] - g1[1]), det), Q(8 * (g1[0] - g2[0]), det))
        deep = box((x0[0] - Q(1, 4), x0[0] + Q(1, 4)), (x0[1] - Q(1, 4), x0[1] + Q(1, 4)))
        assert cone_family_converges(cone.apex, cone, deep)


def test_flux_monomial_translation_rule():
    rng = random.Random(62)
    for _ in range(25):
        b = (Q(rng.randint(-20, 20), 7), Q(rng.randint(-20, 20), 7))
        c = (Q(rng.randint(-20, 20), 5), Q(rng.randint(-20, 20), 5))
        alpha = (rng.randint(-3, 3), rng.randint(-3, 3))
        b2 = (b[0] + c[0], b[1] + c[1])
        m1 = flux_monomial(b, alpha, "V_plus")
        m2 = flux_monomial(b2, alpha, "V_plus")
        pairing = alpha[0] * c[0] + alpha[1] * c[1]
        from tropmirror.novikov import nov_mul

        assert m2.coeff == nov_mul(nov([(pairing, 1)]), m1.coeff)
        assert m2.expo == m1.expo


def test_flux_monomial_zero_class_is_one():
    m = flux_monomial((Q(3), Q(-2)), (0, 0), "V_minus")
    assert m.coeff == ONE
    assert m.expo == (0, 0)


def test_flux_monomial_d1():
    m = flux_monomial((Q(0),), (1,), "V_plus")
    assert m.coeff == ONE and m.expo == (1,)


def test_flux_monomial_wall_check():
    from tropmirror.affine import build_cut_presentation

    diag = TropicalDiagram(1, ((Q(0),),))
    pres = build_cut_presentation(diag)
    from tropmirror.affine import AffineError

    with pytest.raises(AffineError, match="on wall"):
        flux_monomial((Q(0), Q(0)), (1, 0), "V_plus", presentation=pres)
    got = flux_monomial((Q(1), Q(2)), (1, 0), "V_plus", presentation=pres)
    assert got.expo == (1, 0)
    with pytest.raises(AnalyticError, match="not"):
        flux_monomial((Q(1), Q(-2)), (1, 0), "V_plus", presentation=pres)


def test_wall_cross_examples():
    z1 = series([Monomial(ONE, (0, 1))], "V_plus", BOX_P, 10)
    corrected = WallTransformation(0, (1, 0), (0, 1), "corrected")
    expanded = wall_cross(z1, corrected, 10, BOX_P)
    assert [m.expo for m in expanded.terms] == [(0, 1), (1, 1)]
    assert expanded.chamber == "V_minus"
    const = series([Monomial(ONE, (0, 0))], "V_plus", BOX_P, 10)
    out = wall_cross(const, corrected, 10, BOX_P)
    assert [m.expo for m in out.terms] == [(0, 0)]


def test_wall_cross_refuses_every_mode_but_corrected():
    # the monodromy shear of a cut is transport_covector's, not a wall mode
    for mode in ("affine", "Corrected", "", "cluster"):
        with pytest.raises(AnalyticError, match=f"^unknown wall-crossing mode {mode!r}$"):
            WallTransformation(0, (1, 0), (0, 1), mode)


def test_wall_cross_gamma_must_be_primitive():
    with pytest.raises(AnalyticError, match="primitive"):
        WallTransformation(0, (2, 0), (0, 1), "corrected")


def test_wall_cross_refuses_data_of_another_dimension():
    # pairings +1 and -1: corrected mode takes both the finite and the family branch
    s = series([Monomial(ONE, (0, 1)), Monomial(ONE, (1, -1))], "V_plus", BOX_P, 10)
    cases = [((1, 0, 0), (0, 1), "gamma has length 3"), ((1, 0), (0, 1, 0), "normal has length 3")]
    for gamma, normal, message in cases:
        with pytest.raises(AnalyticError, match=f"{message}, the series has dimension 2"):
            wall_cross(s, WallTransformation(0, gamma, normal, "corrected"), 10, BOX_P)
    # the target box gives the result its dimension, so it must have the series'
    for a in (s, series([], "V_plus", BOX_P, 10)):
        with pytest.raises(AnalyticError, match="box has length 1, the series has dimension 2"):
            wall_cross(a, WallTransformation(0, (1, 0), (0, 1), "corrected"), 10, box((0, 1)))


def test_series_refuses_exponents_and_boxes_of_another_dimension(tmp_path, capsys):
    with pytest.raises(AnalyticError, match=r"exponent \(0, 1\) has length 2, the series has dimension 1"):
        series([Monomial(ONE, (3,)), Monomial(ONE, (0, 1))], "V_plus", box((0, 1)), 10)
    f = tmp_path / "series.json"
    f.write_text(json.dumps({
        "dim": 3,
        "chamber": "V_plus",
        "box": [["1/4", "2"], ["1/4", "2"]],
        "truncation": "10",
        "terms": [{"expo": [0, 1], "coeff": [{"exp": "0", "coeff": "1"}]}],
    }))
    assert run(["eval", str(f), "--point", "1,1,1"]) == 1
    assert capsys.readouterr().err == "error: malformed series JSON: box has length 2, the series has dimension 3\n"
    data = {
        "dim": 3,
        "chamber": "V_plus",
        "box": [["0", "1"]],
        "truncation": "10",
        "terms": [{"expo": [0, 1], "coeff": [{"exp": "0", "coeff": "1"}]}],
    }
    with pytest.raises(AnalyticError, match="malformed series JSON: box has length 1, the series has dimension 3"):
        series_from_json(data)
    data["box"] = [["0", "1"]] * 3
    with pytest.raises(AnalyticError, match=r"malformed series JSON: exponent \(0, 1\) has length 2"):
        series_from_json(data)


def test_series_record_refuses_repeated_exponents():
    # series() merges a repeated exponent; the record itself refuses one
    with pytest.raises(AnalyticError) as info:
        AnalyticSeries((Monomial(ONE, (1, 0)), Monomial(ONE, (1, 0))), "V_plus", BOX_P, 10)
    assert str(info.value) == "explicit terms must have distinct exponents"


def test_an_empty_series_takes_its_box_dimension():
    for terms in ([], [Monomial(ONE, (1, 0)), Monomial(nov([(0, -1)]), (1, 0))]):
        empty = series(terms, "V_plus", BOX_P, 10)
        assert (empty.terms, empty.dim) == ((), 2)
        assert series_from_json(series_to_json(empty)) == empty
        assert eval_series(empty, (1, 1)) == nov([], 10)
    assert series([], "V_plus", box((0, 1)), 10).dim == 1


def test_wall_cross_needs_open_chamber():
    s = series([Monomial(ONE, (0, 1))], "wall(0)", BOX_P, 10)
    with pytest.raises(AnalyticError, match="adjacent"):
        wall_cross(s, WallTransformation(0, (1, 0), (0, 1), "corrected"), 10, BOX_P)


def _random_nonneg_series(rng, E, nmax=3):
    # box-valuation >= 0 keeps mod-E arithmetic sound, as for the ring axioms
    terms = [
        Monomial(
            nov([(Q(rng.randint(0, 8)), rng.randint(1, 4))]),
            (rng.randint(0, 3), rng.randint(0, 3)),
        )
        for _ in range(rng.randint(1, nmax))
    ]
    return series(terms, "V_plus", BOX_P, E)


def test_wall_cross_multiplicative():
    rng = random.Random(63)
    E = Q(8)
    # the (0,-1) pairing makes every monomial with positive winding expand
    # as an infinite, truncated family
    w = WallTransformation(0, (1, 0), (0, -1), "corrected")
    for _ in range(40):
        a = _random_nonneg_series(rng, E)
        b = _random_nonneg_series(rng, E)
        lhs = wall_cross(series_mul(a, b), w, E, BOX_P)
        rhs = series_mul(wall_cross(a, w, E, BOX_P), wall_cross(b, w, E, BOX_P))
        assert series_eq_mod(lhs, rhs, E)


def test_wall_cross_forward_backward_identity():
    rng = random.Random(64)
    E = Q(6)
    fwd = WallTransformation(0, (1, 0), (0, 1), "corrected")
    back = WallTransformation(0, (1, 0), (0, -1), "corrected")  # inverted pairing
    for _ in range(30):
        a = _random_nonneg_series(rng, E)
        round_trip = wall_cross(wall_cross(a, fwd, E, BOX_P), back, E, BOX_P)
        assert series_eq_mod(round_trip, a, E)


def test_demo_passes_at_all_truncations():
    for E in (Q(1, 2), Q(1), Q(10), Q(100)):
        report = focus_focus_demo(E)
        assert report.passed, report.messages
        # the product is exactly 1 + z2
        assert sorted(m.expo for m in report.product.terms) == [(0, 0), (1, 0)]
        assert all(m.coeff == ONE for m in report.product.terms)
        # and h_+(y) = z1^{-1} (1 + z2)
        assert sorted(m.expo for m in report.h_plus_y_left.terms) == [(0, -1), (1, -1)]


DEMO_HEAD = "focus-focus wall crossing at E = 10\n"
DEMO_TAIL = "mirror relation: x*y - (1 + u)\n"
ROUTE_FAILS = [
    # a wrong right route changes only the comparison of the two routes
    ((-1, 0), "FAIL: window routes disagree\nPASS: h_+(x) h_+(y) = 1 + z2\n"
     "PASS: product equals the mirror relation g = 1 + u\n"),
    # the left route is also the one multiplied with h_+(x), so every check fails
    ((1, 0), "FAIL: window routes disagree\nFAIL: product is not 1 + z2\n"
     "FAIL: product differs from the mirror superpotential\n"),
]


@pytest.mark.parametrize("gamma, lines", ROUTE_FAILS, ids=["right-route", "left-route"])
def test_wallcross_demo_prints_fail_and_exits_1_when_a_route_is_wrong(capsys, monkeypatch, gamma, lines):
    cross = analytic.wall_cross

    def dropping_a_term(a, w, E, target_box):
        out = cross(a, w, E, target_box)
        if w.gamma != gamma:
            return out
        return AnalyticSeries(out.terms[1:], out.chamber, out.box, out.truncation)

    monkeypatch.setattr(analytic, "wall_cross", dropping_a_term)
    assert run(["wallcross-demo"]) == 1
    assert capsys.readouterr() == (DEMO_HEAD + lines + DEMO_TAIL, "")


def test_wallcross_demo_prints_fail_and_exits_1_when_the_product_is_wrong(capsys, monkeypatch):
    # the routes agree, but a product that drops a term is not 1 + z2
    mul = analytic.series_mul

    def dropping_a_term(a, b):
        out = mul(a, b)
        return AnalyticSeries(out.terms[1:], out.chamber, out.box, out.truncation)

    monkeypatch.setattr(analytic, "series_mul", dropping_a_term)
    assert run(["wallcross-demo"]) == 1
    lines = (
        "PASS: both window routes give the same h_+(y)\nFAIL: product is not 1 + z2\n"
        "FAIL: product differs from the mirror superpotential\n"
    )
    assert capsys.readouterr() == (DEMO_HEAD + lines + DEMO_TAIL, "")


def test_wall_refuses_a_vanishing_class_that_is_not_primitive():
    for gamma in ((2, 0), (0, 0), (-3, 6)):
        with pytest.raises(AnalyticError, match=rf"vanishing class \({gamma[0]}, {gamma[1]}\) is not primitive"):
            WallTransformation(0, gamma, (0, -1), "corrected")


def test_eval_series():
    s = series([Monomial(ONE, (1, 0)), Monomial(nov([(1, 2)]), (0, 1))], "V_plus", BOX_P, 10)
    v = eval_series(s, (Q(1, 2), Q(3)))
    assert v.terms == ((Q(1, 2), Q(1)), (Q(4), Q(2)))


def test_series_json_round_trip():
    s = series(
        [Monomial(nov([(Q(1, 3), Q(5, 2))]), (2, -1)), Monomial(ONE, (0, 0))],
        "V_minus",
        BOX_P,
        Q(7, 2),
    )
    again = series_from_json(series_to_json(s))
    assert again == s
