import json
import os
import random
from fractions import Fraction as Q

import pytest

import tropmirror.diagram
from helpers import ConeKind, dual_vertex_cone, edge_direction_oracle, lattice_triangle_area, random_smooth_web, replace
from tropmirror.affine import build_cut_presentation, chamber_of
from tropmirror.charges import build_web, charges_from_json
from tropmirror.cli import run
from tropmirror.monodromy import build_dual_graph
from tropmirror.diagram import (
    DiagramError,
    TropicalDiagram,
    diagram_from_json,
    diagram_to_json,
    dual_subdivision,
    face_heights,
    faces,
    gauge_points,
    is_smooth,
    locate_face,
    validate,
)
from tropmirror.lattice import dot, vsub


def c3():
    return TropicalDiagram(2, ((Q(0), Q(0)),), (), ((0, (1, 0)), (0, (0, 1)), (0, (-1, -1))))


def conifold():
    return TropicalDiagram(
        2,
        ((Q(0), Q(0)), (Q(-2), Q(-2))),
        ((0, 1),),
        ((0, (1, 0)), (0, (0, 1)), (1, (-1, 0)), (1, (0, -1))),
    )


def test_validate_c3_all_true():
    report = validate(c3())
    assert report.ok
    assert report.failed_axioms() == [] and report.offenders == ()
    assert report.to_json() == {
        "ok": True, "trivalent": True, "balanced": True, "primitive_directions": True, "connected": True,
        "offenders": [],
    }


def test_validate_two_valent_vertex():
    diag = TropicalDiagram(2, ((Q(0), Q(0)),), (), ((0, (1, 0)), (0, (-1, 0))))
    report = validate(diag)
    assert report.failed_axioms() == ["trivalent"]


def test_validate_unbalanced_vertex():
    diag = TropicalDiagram(2, ((Q(0), Q(0)),), (), ((0, (1, 0)), (0, (0, 1)), (0, (-1, -2))))
    report = validate(diag)
    assert report.failed_axioms() == ["balanced"]
    assert any("balanced" in o[0] for o in report.offenders)


def test_structural_invariants_at_construction():
    with pytest.raises(DiagramError, match="coincide"):
        TropicalDiagram(2, ((Q(0), Q(0)), (Q(0), Q(0))))
    with pytest.raises(DiagramError, match="distinct"):
        TropicalDiagram(2, ((Q(0), Q(0)),), ((0, 0),))
    with pytest.raises(DiagramError, match="zero"):
        TropicalDiagram(2, ((Q(0), Q(0)),), (), ((0, (0, 0)),))


def test_a_ray_at_a_vertex_out_of_range_is_refused():
    # below and above the vertex indices: -1 would otherwise read the last vertex
    for at in (-1, 1):
        with pytest.raises(DiagramError) as info:
            TropicalDiagram(2, ((Q(0), Q(0)),), (), ((at, (1, 0)),))
        assert str(info.value) == "ray vertex out of range"


def _unbounded(diag, face) -> bool:
    """Does the face's dart orbit run along a ray?"""
    return any(d >= 2 * len(diag.edges) for d in face)


def test_faces_of_c3():
    fc = faces(c3())
    assert len(fc.faces) == 3
    assert all(_unbounded(c3(), f) for f in fc.faces)


def test_faces_of_conifold():
    fc = faces(conifold())
    assert len(fc.faces) == 4
    # one of the faces spans the two parallel-ish sides but none is bounded
    assert all(_unbounded(conifold(), f) for f in fc.faces)


def test_dual_subdivision_c3():
    dual = dual_subdivision(c3())
    assert set(dual.lattice_points) == {(0, 0), (1, 0), (0, 1)}
    assert dual.lattice_points[dual.root_face] == (0, 0)
    assert len(dual.triangles) == 1


def test_dual_subdivision_d1_single_point():
    dual = dual_subdivision(TropicalDiagram(1, ((Q(0),),)))
    assert set(dual.lattice_points) == {(0,), (1,)}


def test_dual_subdivision_d1_many_points():
    dual = dual_subdivision(TropicalDiagram(1, ((Q(3),), (Q(-1),), (Q(0),))))
    assert set(dual.lattice_points) == {(0,), (1,), (2,), (3,)}


def test_dual_subdivision_conifold_unit_square():
    dual = dual_subdivision(conifold())
    assert set(dual.lattice_points) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert len(dual.triangles) == 2
    for tri in dual.triangles:
        pts = [dual.lattice_points[i] for i in tri]
        assert lattice_triangle_area(*pts) == Q(1, 2)


def test_dual_subdivision_requires_axioms():
    bad = TropicalDiagram(2, ((Q(0), Q(0)),), (), ((0, (1, 0)), (0, (0, 1)), (0, (-1, -2))))
    with pytest.raises(DiagramError, match="balanced"):
        dual_subdivision(bad)


def test_dual_edges_orthogonal():
    for diag in (c3(), conifold()):
        dual = dual_subdivision(diag)
        for e, (left, right) in dual.edge_duality:
            dvec = vsub(dual.lattice_points[left], dual.lattice_points[right])
            assert dot(dvec, edge_direction_oracle(diag, e)) == 0


def test_sign_gauge_flip():
    # reflected triangle, re-translated by the root gauge
    dual = dual_subdivision(c3(), sign=-1)
    assert set(dual.lattice_points) == {(0, 0), (1, 0), (1, -1)}


def test_root_face_override():
    base = dual_subdivision(c3())
    other = dual_subdivision(c3(), root_face=(base.root_face + 1) % 3)
    assert set(base.lattice_points) != set(other.lattice_points)
    assert other.lattice_points[other.root_face] == (0, 0)


def test_root_face_out_of_range():
    for diag in (c3(), TropicalDiagram(1, ((Q(0),), (Q(2),)))):
        nfaces = len(dual_subdivision(diag).lattice_points)
        for bad in (-1, nfaces):
            with pytest.raises(DiagramError, match="out of range"):
                dual_subdivision(diag, root_face=bad)


def test_sign_gauge_must_be_a_sign():
    for bad in (0, 2, -2):
        with pytest.raises(DiagramError, match="sign gauge"):
            dual_subdivision(c3(), sign=bad)


def test_is_smooth_c3():
    assert is_smooth(c3())


def test_is_smooth_rejects_non_primitive_rays():
    doubled = TropicalDiagram(2, ((Q(0), Q(0)),), (), ((0, (2, 0)), (0, (0, 2)), (0, (-2, -2))))
    with pytest.raises(DiagramError, match="primitive"):
        is_smooth(doubled)


def test_is_smooth_false_for_coarse_vertex():
    # balanced primitive trivalent vertex whose dual triangle has area 3/2
    diag = TropicalDiagram(2, ((Q(0), Q(0)),), (), ((0, (0, 1)), (0, (-3, 1)), (0, (3, -2))))
    assert validate(diag).ok
    assert not is_smooth(diag)


def test_euler_counts_on_random_webs():
    rng = random.Random(21)
    for _ in range(10):
        web = random_smooth_web(rng)
        dual = dual_subdivision(web)
        assert len(dual.triangles) == len(web.vertices)
        interior = sum(1 for e, _ in dual.edge_duality if e < len(web.edges))
        boundary = sum(1 for e, _ in dual.edge_duality if e >= len(web.edges))
        assert interior == len(web.edges)
        assert boundary == len(web.rays)
        # subdivision Euler relation: cells - edges + points = 1
        assert len(dual.triangles) - len(dual.edge_duality) + len(dual.lattice_points) == 1


def test_dual_cone_gauge():
    # vectors from a dual vertex toward its neighbors pair non-negatively
    # with the recession directions of the corresponding face
    for diag in (c3(), conifold()):
        fc = faces(diag)
        dual = dual_subdivision(diag)
        for f, face in enumerate(fc.faces):
            alpha = dual.lattice_points[f]
            recession = {diag.segments[d >> 1][1] for d in face if d >= 2 * len(diag.edges)}
            for _, (left, right) in dual.edge_duality:
                other = None
                if left == f:
                    other = right
                elif right == f:
                    other = left
                if other is None:
                    continue
                w = vsub(dual.lattice_points[other], alpha)
                for r in recession:
                    assert dot(w, r) >= 0


def test_dual_vertex_cone_kinds():
    dual = dual_subdivision(conifold())
    kinds = {dual_vertex_cone(dual, f).kind for f in range(4)}
    assert kinds == {ConeKind.STRICT}


def test_face_heights_c3():
    b = (Q(-1, 3), Q(-1, 3))
    dual = dual_subdivision(c3())
    heights = face_heights(c3(), b)
    by_point = {dual.lattice_points[f]: h for f, h in heights.items()}
    assert by_point[(0, 0)] == 0
    assert by_point[(1, 0)] == Q(-1, 3)
    assert by_point[(0, 1)] == Q(-1, 3)


def test_face_heights_base_point_covariance():
    # moving the base point changes heights by the pairing with the shift
    diag = conifold()
    dual = dual_subdivision(diag)
    b = (Q(5), Q(-7))
    c = (Q(1, 3), Q(2))
    h0 = face_heights(diag, b)
    h1 = face_heights(diag, tuple(x + y for x, y in zip(b, c)))
    alpha0 = dual.lattice_points[dual.root_face]
    for f in h0:
        alpha = dual.lattice_points[f]
        assert h1[f] - h0[f] == dot(vsub(alpha, alpha0), c)


def test_locate_face():
    diag = c3()
    dual = dual_subdivision(diag)
    f = locate_face(diag, (Q(2), Q(2)))
    assert dual.lattice_points[f] == (0, 0)
    assert locate_face(diag, (Q(1), Q(0))) is None  # on a ray
    d1 = TropicalDiagram(1, ((Q(0),), (Q(2),)))
    assert locate_face(d1, (Q(-1),)) == 0
    assert locate_face(d1, (Q(1),)) == 1
    assert locate_face(d1, (Q(3),)) == 2
    assert locate_face(d1, (Q(2),)) is None


def test_locate_face_refuses_a_point_of_the_wrong_dimension():
    for diag, x in ((c3(), (1, 2, 3)), (c3(), (1,)), (TropicalDiagram(1, ((Q(0),),)), (0, 0))):
        with pytest.raises(DiagramError) as info:
            locate_face(diag, x)
        assert str(info.value) == f"point dimension mismatch: {x}"


def test_json_round_trip():
    for diag in (c3(), conifold(), TropicalDiagram(1, ((Q(0),), (Q(5, 2),)))):
        data = diagram_to_json(diag)
        again = diagram_from_json(json.loads(json.dumps(data)))
        assert again == diag


def test_json_rationals_as_strings():
    diag = TropicalDiagram(2, ((Q(1, 2), Q(-3, 4)),), (), ((0, (1, 0)), (0, (0, 1)), (0, (-1, -1))))
    data = diagram_to_json(diag)
    assert data["vertices"] == [["1/2", "-3/4"]]


def test_malformed_json():
    with pytest.raises(DiagramError, match="malformed"):
        diagram_from_json({"dim": 2})


# --- derived geometry is computed once per diagram ---------------------------

KP2 = os.path.join(os.path.dirname(__file__), "..", "diagrams", "kp2.json")


def _count_face_builds(monkeypatch) -> list:
    calls = []
    real = tropmirror.diagram.faces

    def counted(diag):
        calls.append(diag)
        return real(diag)

    monkeypatch.setattr(tropmirror.diagram, "faces", counted)
    return calls


def test_dual_command_builds_the_face_complex_once(monkeypatch, capsys):
    calls = _count_face_builds(monkeypatch)
    assert run(["dual", KP2]) == 0
    assert json.loads(capsys.readouterr().out)["embedding_matches_subdivision"] is True
    assert len(calls) == 1


def test_chamber_queries_share_one_face_complex(monkeypatch):
    calls = _count_face_builds(monkeypatch)
    with open(KP2, encoding="utf-8") as fh:
        q, heights = charges_from_json(json.load(fh))
    pres = build_cut_presentation(build_web(q, heights).diagram)
    rng = random.Random(8)
    for _ in range(20):
        x, y = (Q(rng.randint(-5000, 5000), 997) for _ in range(2))
        t = Q(rng.choice((-1, 1)) * rng.randint(1, 50), 7)
        assert str(chamber_of(pres, (x, y, t))) == ("V_plus" if t > 0 else "V_minus")
    assert len(calls) <= 1


def test_warm_diagram_matches_a_fresh_equal_one():
    rng = random.Random(2024)
    for _ in range(8):
        warm = random_smooth_web(rng)
        nfaces = len(dual_subdivision(warm).lattice_points)
        k = rng.randrange(nfaces)
        points = [(Q(rng.randint(-90, 90), 17), Q(rng.randint(-90, 90), 17)) for _ in range(5)]
        calls = [
            lambda d: dual_subdivision(d),
            lambda d: dual_subdivision(d, sign=-1),
            lambda d: dual_subdivision(d, root_face=k),
            lambda d: build_dual_graph(d),
            lambda d: gauge_points(build_dual_graph(d), k, -1),
            lambda d: [locate_face(d, x) for x in points],
            lambda d: dual_subdivision(d),
        ]
        for call in calls:
            fresh = replace(warm)
            assert fresh == warm and "glued" not in vars(fresh)
            assert call(warm) == call(fresh)
