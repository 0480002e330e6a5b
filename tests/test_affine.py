import random
from fractions import Fraction as Q

import pytest

from helpers import identity_matrix, loop_monodromy_oracle, mat_apply, random_smooth_web, standard_form_matrix
from tropmirror.affine import (
    AffineError,
    build_cut_presentation,
    chamber_of,
    transport_covector,
    transport_crossings,
)
from tropmirror.diagram import TropicalDiagram


def c3():
    return TropicalDiagram(2, ((Q(0), Q(0)),), (), ((0, (1, 0)), (0, (0, 1)), (0, (-1, -1))))


def focus_focus():
    return TropicalDiagram(1, ((Q(0),),))


def conifold():
    return TropicalDiagram(
        2,
        ((Q(0), Q(0)), (Q(-1), Q(-1))),
        ((0, 1),),
        ((0, (1, 0)), (0, (0, 1)), (1, (-1, 0)), (1, (0, -1))),
    )


def test_structural_counts():
    assert len(build_cut_presentation(c3()).taus) == 3
    pres = build_cut_presentation(focus_focus())
    assert pres.taus == (0,)
    assert standard_form_matrix(pres.diagram.covectors[0], 2) == ((1, 1), (0, 1))
    assert len(build_cut_presentation(conifold()).taus) == 5


def test_tau_on_non_edge_rejected():
    with pytest.raises(AffineError, match="non-edge"):
        build_cut_presentation(c3(), {"edge5": Q(1)})


def test_tau_constants_accepted():
    pres = build_cut_presentation(c3(), {"ray0": Q(-1)})
    assert pres.taus == (-1, 0, 0)  # c3's edges are its three rays


def test_chamber_classification():
    pres = build_cut_presentation(c3())
    assert chamber_of(pres, (5, 7, 1)) == "V_plus"
    assert chamber_of(pres, (5, 7, -1)) == "V_minus"
    assert chamber_of(pres, (5, 7, 0)).startswith("wall(")
    with pytest.raises(AffineError, match="on wall"):
        chamber_of(pres, (0, 0, 0))  # diagram vertex height


def test_chamber_on_wall_names_the_point_and_what_it_lies_on():
    cases = [
        (focus_focus(), (0, 5), "on wall: (0, 5) lies over point0"),
        (conifold(), (Q(-1, 2), Q(-1, 2), 3), "on wall: (-1/2, -1/2, 3) lies over edge0"),
        (conifold(), (-1, -1, 0), "on wall: (-1, -1, 0) lies over vertex 1"),
        (c3(), (0, 7, Q(1, 2)), "on wall: (0, 7, 1/2) lies over ray1"),
    ]
    for diag, point, message in cases:
        with pytest.raises(AffineError) as info:
            chamber_of(build_cut_presentation(diag), point)
        assert str(info.value) == message


def test_chamber_focus_focus_two_chambers():
    pres = build_cut_presentation(focus_focus())
    assert chamber_of(pres, (-1, -1)) == "V_minus"  # left of the critical value, below
    assert chamber_of(pres, (-1, 1)) == "V_plus"
    assert chamber_of(pres, (-1, 0)) == "wall(0)"
    assert chamber_of(pres, (1, 0)) == "wall(1)"


def test_chamber_locally_constant():
    pres = build_cut_presentation(c3())
    p = (Q(3), Q(5), Q(1))
    base = chamber_of(pres, p)
    for eps in (Q(1, 100), Q(-1, 1000)):
        moved = (p[0] + eps, p[1] - eps, p[2] + eps)
        assert chamber_of(pres, moved) == base


def test_transport_no_crossings():
    pres = build_cut_presentation(c3())
    assert transport_covector(pres, [(1, 1, 1), (2, 2, 2)], (1, 2, 3)) == (1, 2, 3)


def test_transport_focus_focus_loop_is_shear():
    pres = build_cut_presentation(focus_focus())
    loop = [(-1, -1), (1, -1), (1, 1), (-1, 1), (-1, -1)]
    assert transport_covector(pres, loop, (0, 1)) == (1, 1)  # g0 -> g0 + eta
    assert transport_covector(pres, loop, (1, 0)) == (1, 0)  # eta is invariant


def test_transport_double_cross_cancels():
    pres = build_cut_presentation(focus_focus())
    path = [(-1, -1), (1, -1), (-1, -1)]
    assert transport_covector(pres, path, (0, 1)) == (0, 1)


def test_transport_single_cut_loop_equals_standard_form():
    pres = build_cut_presentation(c3())
    # small loop around the cut hanging under the ray (1,0), at x = 2
    loop = [(2, -1, -2), (2, 1, -2), (2, 1, Q(1, 2)), (2, -1, Q(1, 2)), (2, -1, -2)]
    crossings = transport_crossings(pres, loop)
    assert len(crossings) == 1
    e = crossings[0].edge
    sign = crossings[0].sign
    from tropmirror.monodromy import edge_covector

    cov = edge_covector(pres.diagram, e)
    if sign < 0:
        cov = tuple(-c for c in cov)
    expected = standard_form_matrix(cov, 3)
    for g in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert transport_covector(pres, loop, g) == mat_apply(expected, g)


def test_transport_above_cut_is_free():
    pres = build_cut_presentation(focus_focus())
    # passes over the critical value above the cut: no monodromy
    path = [(-1, 1), (1, 1)]
    assert transport_covector(pres, path, (0, 1)) == (0, 1)


def test_path_hitting_discriminant_errors():
    pres = build_cut_presentation(focus_focus())
    with pytest.raises(AffineError, match="discriminant"):
        transport_covector(pres, [(-1, 0), (1, 0)], (0, 1))


def test_path_through_vertex_line_errors():
    pres = build_cut_presentation(c3())
    with pytest.raises(AffineError, match="discriminant"):
        # crosses the plane of ray (1,0) exactly over the vertex, below tau
        transport_covector(pres, [(0, -1, -1), (0, 1, -1)], (0, 0, 1))


def test_contractible_loop_transport_identity():
    pres = build_cut_presentation(conifold())
    # a rectangle loop staying above all cuts
    loop = [(3, 3, 1), (4, 3, 1), (4, 4, 1), (3, 4, 1), (3, 3, 1)]
    for g in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert transport_covector(pres, loop, g) == g
    # a loop crossing the same two cuts in cancelling directions
    loop2 = [(Q(1, 2), Q(1, 2), -1), (3, Q(1, 2), -1), (Q(1, 2), Q(1, 2), -1)]
    for g in ((1, 1, 1), (0, 0, 1)):
        assert transport_covector(pres, loop2, g) == g


def test_path_running_along_a_cut_errors():
    pres = build_cut_presentation(focus_focus())
    with pytest.raises(AffineError, match="along a cut"):
        transport_covector(pres, [(0, -2), (0, -1)], (0, 1))


def test_path_endpoint_on_cut_errors():
    pres = build_cut_presentation(focus_focus())
    with pytest.raises(AffineError, match="endpoint"):
        transport_covector(pres, [(0, -1), (1, -1)], (0, 1))


def test_transport_with_raised_tau():
    # tau below the path: no crossing; tau above: crossing appears
    pres_lo = build_cut_presentation(focus_focus(), {"point0": Q(-3)})
    pres_hi = build_cut_presentation(focus_focus(), {"point0": Q(3)})
    path = [(-1, 0), (1, 0)]
    assert transport_covector(pres_lo, path, (0, 1)) == (0, 1)
    assert transport_covector(pres_hi, path, (0, 1)) == (1, 1)


def test_transport_crossings_checks_its_path():
    pres = build_cut_presentation(c3())
    cases = [
        ([(0, 0, 0)], "path needs at least two points"),
        ([(1, 1, 1), (1, 1, 1)], "consecutive path points coincide"),
        ([(1, 1, 1), (2, 2)], "path point dimension mismatch"),
    ]
    for path, message in cases:
        with pytest.raises(AffineError) as info:
            transport_crossings(pres, path)
        assert str(info.value) == message


def test_path_in_a_cut_plane_above_the_cut_is_free():
    # in the vertical plane of ray 0, at height 1/3 or more over the whole ray
    pres = build_cut_presentation(c3())
    path = [(-1, 0, -1), (2, 0, 3)]
    for p in (path, path[::-1]):
        assert transport_crossings(pres, p) == []
        assert transport_covector(pres, p, (0, 0, 1)) == (0, 0, 1)
    for y in (Q(1, 1000), Q(-1, 1000)):
        beside = [(-1, y, -1), (2, y, 3)]
        assert transport_covector(pres, beside, (0, 0, 1)) == (0, 0, 1)


def test_path_in_a_cut_plane_below_the_cut_errors():
    pres = build_cut_presentation(c3())
    with pytest.raises(AffineError, match="along a cut"):
        transport_covector(pres, [(-1, 0, -1), (2, 0, -1)], (0, 0, 1))


def test_path_over_the_far_vertex_of_an_edge_errors():
    pres = build_cut_presentation(conifold())
    with pytest.raises(AffineError, match="discriminant"):
        transport_covector(pres, [(-2, 0, -1), (0, -2, -1)], (0, 0, 1))


# --- each refusal names its witness: segment index, cut, point -------------


def test_discriminant_refusal_names_its_witness():
    # segment 1 meets the plane of ray1 at x = 0, at the cut's height 0
    path = [(3, 3, 2), (3, 3, 1), (-3, 1, -1), (-3, -1, -1)]
    with pytest.raises(AffineError) as info:
        transport_crossings(build_cut_presentation(conifold()), path)
    assert str(info.value) == "path hits discriminant: segment 1 meets the cut of ray1 at (0, 2, 0)"


def test_along_a_cut_refusal_names_its_witness():
    # segment 1 drops through the middle of edge0; its part at or below the
    # cut height starts at height 0
    path = [(3, 3, 1), (Q(-1, 2), Q(-1, 2), 1), (Q(-1, 2), Q(-1, 2), -3)]
    with pytest.raises(AffineError) as info:
        transport_crossings(build_cut_presentation(conifold()), path)
    assert str(info.value) == "path runs along a cut: segment 1 meets the cut of edge0 at (-1/2, -1/2, 0)"
    # in the plane of ray0, the first point of the segment over the ray
    with pytest.raises(AffineError) as info:
        transport_crossings(build_cut_presentation(c3()), [(-1, 0, -1), (2, 0, -1)])
    assert str(info.value) == "path runs along a cut: segment 0 meets the cut of ray0 at (0, 0, -1)"


def test_endpoint_refusal_names_its_witness():
    path = [(Q(1, 2), Q(1, 2), -1), (3, Q(1, 2), -1), (3, Q(-1, 2), -1), (Q(-1, 2), Q(-1, 2), -1)]
    with pytest.raises(AffineError) as info:
        transport_crossings(build_cut_presentation(conifold()), path)
    assert str(info.value) == "path endpoint lies on a cut: segment 2 meets the cut of edge0 at (-1/2, -1/2, -1)"


def test_transport_around_a_loop_is_the_monodromy_of_its_crossing_word():
    # generic closed polylines on seeded smooth webs, half with raised cut
    # heights: transport is the ordered matrix product of the recorded
    # crossing word (the oracle, so the check does not go through the sum).
    # A loop below every cut stays in a half-space that misses the
    # discriminant, so its word multiplies out to the identity; a loop that
    # passes above some cuts may link the discriminant.
    rng = random.Random(1204)
    counts = {"crossed below": 0, "nontrivial": 0}
    for i in range(16):
        web = random_smooth_web(rng)
        tau = {web.edge_name(e): Q(rng.randint(0, 40), 17) for e in range(len(web.segments))} if i % 2 else None
        pres = build_cut_presentation(web, tau)
        floor = min(pres.taus)
        xs = [c for v in web.vertices for c in v]
        lo, hi = int(min(xs)) - 2, int(max(xs)) + 2
        for k in range(6):
            below = k % 2 == 0
            loop = [
                (Q(rng.randint(997 * lo, 997 * hi), 997), Q(rng.randint(997 * lo, 997 * hi), 997),
                 floor - Q(rng.randint(1, 3000), 991) if below else Q(rng.randint(-3000, 6000), 991))
                for _ in range(rng.randint(3, 6))
            ]
            loop.append(loop[0])
            word = tuple((c.edge, c.sign) for c in transport_crossings(pres, loop))
            monodromy = loop_monodromy_oracle(web, word)
            for g in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                assert transport_covector(pres, loop, g) == mat_apply(monodromy, g)
            if below:
                assert monodromy == identity_matrix(3), loop
                counts["crossed below"] += bool(word)
            else:
                counts["nontrivial"] += monodromy != identity_matrix(3)
    assert min(counts.values()) >= 15, counts
