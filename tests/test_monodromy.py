import json
import os
import random
from fractions import Fraction as Q

import pytest

from helpers import (
    identity_matrix,
    loop_monodromy_oracle,
    mat_mul,
    random_lattice_polygon,
    random_smooth_web,
    standard_form_matrix,
    vertex_loop,
)
from tropmirror import monodromy
from tropmirror.affine import AffineError, build_cut_presentation
from tropmirror.charges import regular_subdivision, web_from_subdivision
from tropmirror.cli import run
from tropmirror.diagram import TropicalDiagram, dual_subdivision, gauge_points, is_smooth, validate
from tropmirror.lattice import is_primitive, vsub
from tropmirror.monodromy import MonodromyError, build_dual_graph, edge_covector


def c3():
    return TropicalDiagram(2, ((Q(0), Q(0)),), (), ((0, (1, 0)), (0, (0, 1)), (0, (-1, -1))))


def conifold():
    return TropicalDiagram(
        2,
        ((Q(0), Q(0)), (Q(-1), Q(-1))),
        ((0, 1),),
        ((0, (1, 0)), (0, (0, 1)), (1, (-1, 0)), (1, (0, -1))),
    )


def test_edge_covector_orthogonal_and_gauge():
    diag = c3()
    assert edge_covector(diag, 0) == (0, -1)  # ray0, direction (1,0)
    assert edge_covector(diag, 2) == (-1, 1)  # ray2, direction (-1,-1)
    d1 = TropicalDiagram(1, ((Q(0),),))
    assert edge_covector(d1, 0) == (1,)


def line():
    return TropicalDiagram(1, ((Q(0),), (Q(3, 2),), (Q(-2),)))


def test_edge_names_follow_the_rows():
    assert [conifold().edge_name(e) for e in range(5)] == ["edge0", "ray0", "ray1", "ray2", "ray3"]
    assert [c3().edge_name(e) for e in range(3)] == ["ray0", "ray1", "ray2"]
    assert [line().edge_name(e) for e in range(3)] == ["point0", "point1", "point2"]


# the conifold has edge0 and ray0..ray3; the line has point0..point2
OUTSIDE = [
    ("conifold", "edge-1"),
    ("conifold", "edge1"),
    ("conifold", "edge7"),
    ("conifold", "ray-1"),
    ("conifold", "ray-4"),
    ("conifold", "ray4"),
    ("line", "point-1"),
    ("line", "point3"),
    ("line", "edge0"),
]


@pytest.mark.parametrize("name, edge", OUTSIDE, ids=[f"{name}-{edge}" for name, edge in OUTSIDE])
def test_edge_refs_outside_the_diagram_are_refused(name, edge):
    diag = conifold() if name == "conifold" else line()
    with pytest.raises(AffineError, match=f"^tau defined on a non-edge {edge}$"):
        build_cut_presentation(diag, {edge: Q(1)})


@pytest.mark.parametrize("name", ["conifold", "line"])
def test_rows_outside_the_edge_table_are_refused(name):
    diag = conifold() if name == "conifold" else line()
    n = len(diag.segments)
    for e in (-1, -n, n, n + 7):
        message = f"^edge row {e} is out of range: the diagram has {n} edges$"
        with pytest.raises(MonodromyError, match=message):
            edge_covector(diag, e)


def test_point_names_on_a_web_are_not_edges():
    for index in (0, -1, 9):
        with pytest.raises(AffineError, match=f"^tau defined on a non-edge point{index}$"):
            build_cut_presentation(conifold(), {f"point{index}": Q(1)})


def test_covector_is_dual_edge_difference():
    for diag in (c3(), conifold()):
        dual = dual_subdivision(diag)
        for e, (left, right) in dual.edge_duality:
            diff = vsub(dual.lattice_points[left], dual.lattice_points[right])
            assert diff == edge_covector(diag, e)


def test_standard_form_examples():
    assert standard_form_matrix((1,), 2) == ((1, 1), (0, 1))
    assert standard_form_matrix((0, 1), 3) == ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    with pytest.raises(MonodromyError, match="primitive"):
        standard_form_matrix((2, 4), 3)


def test_loop_monodromy_empty_and_inverse():
    diag = c3()
    assert loop_monodromy_oracle(diag, ()) == identity_matrix(3)
    word = ((1, 1), (1, -1))  # across ray1 and back
    assert loop_monodromy_oracle(diag, word) == identity_matrix(3)


def test_vertex_loop_is_cocycle():
    diag = c3()
    word = vertex_loop(diag, 0)
    assert len(word) == 3
    assert loop_monodromy_oracle(diag, word) == identity_matrix(3)


def test_single_edge_antisymmetry():
    diag = conifold()
    for e in range(len(diag.segments)):
        fwd = loop_monodromy_oracle(diag, ((e, 1),))
        back = loop_monodromy_oracle(diag, ((e, -1),))
        assert mat_mul(fwd, back) == identity_matrix(3)


def test_build_dual_graph_examples():
    assert set(build_dual_graph(c3())) == {(0, 0), (1, 0), (0, 1)}
    assert set(build_dual_graph(TropicalDiagram(1, ((Q(0),),)))) == {(0,), (1,)}
    assert set(build_dual_graph(conifold())) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_build_dual_graph_embeds_a_non_smooth_web():
    # the covector sum needs only balancing: a dual triangle of area 3/2 embeds too
    coarse = TropicalDiagram(2, ((Q(0), Q(0)),), (), ((0, (0, 1)), (0, (-3, 1)), (0, (3, -2))))
    assert not is_smooth(coarse)
    assert build_dual_graph(coarse) == dual_subdivision(coarse).lattice_points


DIAGRAMS = os.path.join(os.path.dirname(__file__), "..", "diagrams")
GAUGE_FLAGS = ([], ["--flip-sign"], ["--root-face", "1"], ["--root-face", "1", "--flip-sign"])


def _cross_checks(capsys) -> list[bool]:
    out = []
    for name in ("c3", "conifold", "kp2", "kp1p1"):
        for flags in GAUGE_FLAGS:
            assert run(["dual", os.path.join(DIAGRAMS, f"{name}.json")] + flags) == 0
            out.append(json.loads(capsys.readouterr().out)["embedding_matches_subdivision"])
    return out


def test_the_cross_check_fails_on_sheared_covectors_in_every_gauge(capsys, monkeypatch):
    # the same unimodular shear on every covector keeps the cocycle, so the
    # covector sum still embeds, but no longer where the gluing puts the faces
    assert _cross_checks(capsys) == [True] * 16
    covector = monodromy.edge_covector

    def sheared(diag, e):
        c = covector(diag, e)
        return (c[0] + c[1], c[1])

    monkeypatch.setattr(monodromy, "edge_covector", sheared)
    assert _cross_checks(capsys) == [False] * 16


def _non_smooth_webs(rng: random.Random) -> list[TropicalDiagram]:
    """Valid non-smooth webs: one vertex with balanced primitive rays, and lower hulls that skip points."""
    out = []
    while len(out) < 80:
        rays = [tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(rng.randint(2, 4))]
        rays.append((-sum(r[0] for r in rays), -sum(r[1] for r in rays)))
        if all(is_primitive(r) for r in rays):
            diag = TropicalDiagram(2, ((Q(0), Q(0)),), (), tuple((0, r) for r in rays))
            if validate(diag).ok and not is_smooth(diag):
                out.append(diag)
    while len(out) < 120:
        pts = random_lattice_polygon(rng)
        try:
            diag = web_from_subdivision(regular_subdivision(pts, [Q(rng.randint(-20, 20), 7) for _ in pts]))
        except ValueError:
            continue
        if len(diag.vertices) > 1 and validate(diag).ok and not is_smooth(diag):
            out.append(diag)
    return out


def test_embedding_matches_subdivision_on_non_smooth_webs():
    rng = random.Random(1702)
    several = 0
    for diag in _non_smooth_webs(rng):
        several += len(diag.vertices) > 1
        nfaces = len(dual_subdivision(diag).lattice_points)
        for root_face, sign in ((None, 1), (rng.randrange(nfaces), rng.choice((1, -1)))):
            dual = dual_subdivision(diag, root_face, sign)
            assert gauge_points(build_dual_graph(diag), root_face, sign) == (dual.lattice_points, dual.root_face), diag
    assert several == 40


def test_embedding_matches_subdivision_on_random_webs():
    rng = random.Random(41)
    for _ in range(15):
        web = random_smooth_web(rng)
        assert build_dual_graph(web) == dual_subdivision(web).lattice_points


def test_cocycle_on_random_webs():
    rng = random.Random(42)
    for _ in range(10):
        web = random_smooth_web(rng)
        n = web.dim + 1
        for v in range(len(web.vertices)):
            assert loop_monodromy_oracle(web, vertex_loop(web, v)) == identity_matrix(n)


def test_contractible_words_have_identity_monodromy():
    rng = random.Random(43)
    for _ in range(10):
        web = random_smooth_web(rng)
        rows = range(len(web.segments))
        # random word times its formal inverse, with vertex relators spliced in
        word = [(rng.choice(rows), rng.choice((1, -1))) for _ in range(rng.randint(0, 4))]
        inverse = [(e, -s) for e, s in reversed(word)]
        middle = list(vertex_loop(web, rng.randrange(len(web.vertices))))
        full = word + middle + inverse
        assert loop_monodromy_oracle(web, tuple(full)) == identity_matrix(3)


def test_tree_independence_via_shuffled_adjacency():
    # build_dual_graph verifies the cocycle on every non-tree edge, so any
    # BFS tree gives the same embedding; spot-check by comparing the
    # embedding computed from relabeled (hence differently-traversed) webs
    rng = random.Random(44)
    for _ in range(5):
        web = random_smooth_web(rng)
        emb = build_dual_graph(web)
        nv = len(web.vertices)
        perm = list(range(nv))
        rng.shuffle(perm)
        inv = [perm.index(i) for i in range(nv)]
        relabeled = TropicalDiagram(
            2,
            tuple(web.vertices[inv[i]] for i in range(nv)),
            tuple((perm[i], perm[j]) for i, j in web.edges),
            tuple((perm[i], d) for i, d in web.rays),
        )
        assert set(emb) == set(build_dual_graph(relabeled))
