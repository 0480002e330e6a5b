"""Cross-module fuzzing on random smooth webs."""

import random
from fractions import Fraction as Q

from helpers import dual_vertex_cone, intersect_shifted_cones, random_smooth_web
from tropmirror.diagram import (
    dual_subdivision,
    face_heights,
    is_smooth,
    validate,
)
from tropmirror.lattice import box, dot, vsub
from tropmirror.mirror import normalize_presentation, presentation
from tropmirror.monodromy import build_dual_graph, edge_covector
from tropmirror.novikov import nov_val


def test_random_webs_full_battery():
    rng = random.Random(314159)
    for _ in range(25):
        web = random_smooth_web(rng)
        assert validate(web).ok
        assert is_smooth(web)

        dual = dual_subdivision(web)
        emb = build_dual_graph(web)
        assert emb.positions == dual.lattice_points

        # duality: covector = dual difference, orthogonal to the edge
        for ref, (left, right) in dual.edge_duality:
            diff = vsub(dual.lattice_points[left], dual.lattice_points[right])
            assert diff == edge_covector(web, ref)

        # cone-support lemma on a box covering the support
        coords = [c for p in dual.lattice_points for c in p]
        lo, hi = min(coords) - 1, max(coords) + 1
        cones = [dual_vertex_cone(dual, f) for f in range(len(dual.lattice_points))]
        found = intersect_shifted_cones(cones, box((lo, hi), (lo, hi)))
        assert found == set(dual.lattice_points)

        # normalized mirror: unit leading coefficients, nonnegative exponents,
        # zero exactly on the cells at the root
        pres = normalize_presentation(presentation(web))
        vals = {a: nov_val(c) for a, c in pres.relation.terms}
        assert all(v >= 0 for v in vals.values())
        assert vals[tuple(0 for _ in range(web.dim))] == 0
        assert normalize_presentation(pres) == pres


def test_face_heights_loop_consistency():
    # recomputing heights from scratch with a different base point keeps all
    # increments consistent around every loop (raises internally otherwise)
    rng = random.Random(271828)
    for _ in range(10):
        web = random_smooth_web(rng)
        dual = dual_subdivision(web)
        for b in ((Q(0), Q(0)), (Q(7, 3), Q(-5, 2))):
            heights = face_heights(web, b)
            assert len(heights) == len(dual.lattice_points)
            # and the tropical min over any sampled point is attained by
            # locate_face's winner
            from tropmirror.diagram import locate_face

            x = (Q(rng.randint(-40, 40), 13), Q(rng.randint(-40, 40), 13))
            f = locate_face(web, x)
            if f is not None:
                values = {
                    g: heights[g] + dot(dual.lattice_points[g], vsub(x, b))
                    for g in heights
                }
                assert min(values.values()) == values[f]


def test_rectangles_with_many_parallel_rays():
    # boundary edges of lattice length up to 4 give several parallel rays,
    # stressing the rotation order at infinity
    from tropmirror.charges import ChargeError, regular_subdivision, web_from_subdivision

    rng = random.Random(777)
    cases = 0
    for w, h in [(4, 1), (3, 2), (4, 2), (1, 4), (2, 3)]:
        pts = [(x, y) for x in range(w + 1) for y in range(h + 1)]
        for _ in range(4):
            heights = [
                Q(x * x + y * y) + Q(rng.randint(-(10**5), 10**5), 10**7) for x, y in pts
            ]
            try:
                sub = regular_subdivision(pts, heights)
                if not sub.is_unimodular():
                    continue
                web = web_from_subdivision(sub)
            except ChargeError:
                continue
            assert validate(web).ok and is_smooth(web)
            dual = dual_subdivision(web)
            assert build_dual_graph(web).positions == dual.lattice_points
            cones = [dual_vertex_cone(dual, f) for f in range(len(dual.lattice_points))]
            lo = min(c for p in dual.lattice_points for c in p) - 1
            hi = max(c for p in dual.lattice_points for c in p) + 1
            assert intersect_shifted_cones(cones, box((lo, hi), (lo, hi))) == set(
                dual.lattice_points
            )
            cases += 1
    assert cases >= 10
