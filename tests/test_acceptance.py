"""Acceptance suite: one criterion per test, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the status lines.
"""

import json
import os
import random
import time
from fractions import Fraction as Q

from helpers import (
    box,
    dual_vertex_cone,
    identity_matrix,
    interior_point_near_vertex,
    intersect_shifted_cones,
    lattice_triangle_area,
    loop_monodromy_oracle,
    nov_eq_mod,
    primitive_q_oracle,
    random_smooth_web,
    vertex_loop,
)
from tropmirror.analytic import focus_focus_demo
from tropmirror.charges import ChargeError, ChargeMatrix, build_web
from tropmirror.cli import run
from tropmirror.diagram import (
    dual_subdivision,
    is_smooth,
    validate,
)
from tropmirror.lattice import vsub
from tropmirror.mirror import (
    normalize_presentation,
    relation_text,
    superpotential,
    superpotential_text,
)
from tropmirror.monodromy import build_dual_graph
from tropmirror.novikov import nov, nov_inv, nov_mul, nov_val

DIAGRAMS = os.path.join(os.path.dirname(__file__), "..", "diagrams")


def _path(name):
    return os.path.join(DIAGRAMS, name)


def _report(n, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {n}: {status} {label} ({elapsed:.2f}s < {budget}s)")
    assert ok, f"criterion {n} failed"
    assert elapsed < budget, f"criterion {n} exceeded {budget}s"


def test_acceptance_1_focus_focus_relation(capsys):
    t0 = time.time()
    rc = run(["mirror", _path("focus_focus.json")])
    out = json.loads(capsys.readouterr().out)
    ok = rc == 0 and out["relation"] == "x*y - (1 + u)"
    with capsys.disabled():
        _report(1, "focus-focus relation x*y - (1 + u)", ok, time.time() - t0, 1.0)


def test_acceptance_2_wallcross_pipeline(capsys):
    t0 = time.time()
    ok = True
    for E in (Q(1, 2), Q(1), Q(10), Q(100)):
        report = focus_focus_demo(E)
        ok = ok and report.passed
        # h_+(y) = z1^{-1}(1 + z2) exactly
        ok = ok and sorted(m.expo for m in report.h_plus_y_left.terms) == [(0, -1), (1, -1)]
        ok = ok and all(m.coeff == nov([(0, 1)]) for m in report.h_plus_y_left.terms)
        # product = 1 + z2 exactly
        ok = ok and sorted(m.expo for m in report.product.terms) == [(0, 0), (1, 0)]
        ok = ok and all(m.coeff == nov([(0, 1)]) for m in report.product.terms)
    with capsys.disabled():
        _report(2, "wall-crossing demo: h_+(y) and x*y = 1 + z2 for all E", ok, time.time() - t0, 1.0)


def test_acceptance_3_c3(capsys):
    t0 = time.time()
    from tropmirror.diagram import diagram_from_json

    with open(_path("c3.json")) as fh:
        diag = diagram_from_json(json.load(fh))
    report = validate(diag)
    ok = report.ok
    dual = dual_subdivision(diag)
    ok = ok and set(dual.lattice_points) == {(0, 0), (1, 0), (0, 1)}
    for tri in dual.triangles:
        pts = [dual.lattice_points[i] for i in tri]
        ok = ok and lattice_triangle_area(*pts) == Q(1, 2)
    g = normalize_presentation(superpotential(diag))
    ok = ok and superpotential_text(g) == "1 + u1 + u2"
    with capsys.disabled():
        _report(3, "C^3: axioms, unit-triangle dual, g = 1 + u1 + u2", ok, time.time() - t0, 1.0)


def test_acceptance_4_monodromy_suite(capsys):
    t0 = time.time()
    rng = random.Random(2026)
    ok = True
    for _ in range(100):
        web = random_smooth_web(rng)
        n = web.dim + 1
        # cocycle at every vertex
        for v in range(len(web.vertices)):
            ok = ok and loop_monodromy_oracle(web, vertex_loop(web, v)) == identity_matrix(n)
        # contractible loops: random word conjugated against its inverse
        rows = range(len(web.segments))
        word = [(rng.choice(rows), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))]
        contractible = tuple(
            word
            + list(vertex_loop(web, rng.randrange(len(web.vertices))))
            + [(r, -s) for r, s in reversed(word)]
        )
        ok = ok and loop_monodromy_oracle(web, contractible) == identity_matrix(n)
        # spanning-tree independence: relabeling changes the traversal order
        nv = len(web.vertices)
        perm = list(range(nv))
        rng.shuffle(perm)
        inv = [perm.index(i) for i in range(nv)]
        from tropmirror.diagram import TropicalDiagram

        relabeled = TropicalDiagram(
            2,
            tuple(web.vertices[inv[i]] for i in range(nv)),
            tuple((perm[i], perm[j]) for i, j in web.edges),
            tuple((perm[i], d) for i, d in web.rays),
        )
        ok = ok and set(build_dual_graph(web)) == set(build_dual_graph(relabeled))
        # embedding agrees with the geometric dual subdivision
        ok = ok and build_dual_graph(web) == dual_subdivision(web).lattice_points
        if not ok:
            break
    with capsys.disabled():
        _report(4, "monodromy suite on 100 random smooth webs", ok, time.time() - t0, 30.0)


def test_acceptance_5_cone_support_lemma(capsys):
    t0 = time.time()
    webs = {
        "C3": build_web(ChargeMatrix((), 3), [0, 0, 0]).diagram,
        "conifold": build_web(ChargeMatrix(((1, 1, -1, -1),), 4), [0, 1, 0, 0]).diagram,
        "KP2": build_web(ChargeMatrix(((1, 1, 1, -3),), 4), [1, 1, 1, 0]).diagram,
    }
    search = box((-5, 5), (-5, 5))
    ok = True
    for name, web in webs.items():
        dual = dual_subdivision(web)
        cones = [dual_vertex_cone(dual, f) for f in range(len(dual.lattice_points))]
        found = intersect_shifted_cones(cones, search)
        ok = ok and found == set(dual.lattice_points)
    with capsys.disabled():
        _report(5, "shifted-cone intersection = dual vertex set (C3, conifold, KP2)", ok, time.time() - t0, 5.0)


def test_acceptance_6_novikov_axioms(capsys):
    t0 = time.time()
    rng = random.Random(99)
    ok = True
    E = Q(7)
    for _ in range(1000):
        terms_a = [(Q(rng.randint(-12, 30), rng.randint(1, 6)), Q(rng.randint(-9, 9))) for _ in range(rng.randint(0, 4))]
        terms_b = [(Q(rng.randint(-12, 30), rng.randint(1, 6)), Q(rng.randint(-9, 9))) for _ in range(rng.randint(0, 4))]
        a, b = nov(terms_a), nov(terms_b)
        va, vb = nov_val(a), nov_val(b)
        prod = nov_mul(a, b)
        if va is None or vb is None:
            ok = ok and nov_val(prod) is None
        else:
            ok = ok and nov_val(prod) == va + vb
            s = a + b
            vs = nov_val(s)
            if vs is not None:
                ok = ok and vs >= min(va, vb)
            if va != vb:
                ok = ok and vs == min(va, vb)
        if not a.is_zero():
            ok = ok and nov_eq_mod(nov_mul(a, nov_inv(a, E)), nov([(0, 1)]), E)
        if not ok:
            break
    with capsys.disabled():
        _report(6, "Novikov axioms, 1000 random cases", ok, time.time() - t0, 10.0)


def test_acceptance_7_base_point_covariance(capsys):
    t0 = time.time()
    rng = random.Random(77)
    ok = True
    from tropmirror.diagram import locate_face

    for _ in range(50):
        web = random_smooth_web(rng)
        b1 = interior_point_near_vertex(web, rng)
        face1 = locate_face(web, b1)
        b2 = None
        for k in (37, 301, 4001, 50021):  # shrink until inside the same face
            eps = Q(1, k)
            cand = (b1[0] + eps, b1[1] + eps * eps)
            if locate_face(web, cand) == face1:
                b2 = cand
                break
        ok = ok and b2 is not None
        g1 = normalize_presentation(superpotential(web, base=b1))
        g2 = normalize_presentation(superpotential(web, base=b2))
        ok = ok and g1 == g2
        if not ok:
            break
    with capsys.disabled():
        _report(7, "base-point covariance on 50 random (diagram, b, b')", ok, time.time() - t0, 10.0)


def test_acceptance_8_charge_pipeline(capsys):
    t0 = time.time()
    web = build_web(ChargeMatrix(((1, 1, -1, -1),), 4), [0, 1, 0, 0])
    ok = validate(web.diagram).ok and is_smooth(web.diagram)
    g = normalize_presentation(superpotential(web.diagram))
    support = {a for a, _ in g.terms}
    ok = ok and support == {(0, 0), (1, 0), (0, 1), (1, 1)}
    # the coefficient at the vertex across the bounded edge carries t^Q with
    # Q the lattice length of the bounded edge
    (i, j) = web.diagram.edges[0]
    dv = vsub(web.diagram.vertices[j], web.diagram.vertices[i])
    prim = primitive_q_oracle(dv)
    axis = 0 if prim[0] != 0 else 1
    length = dv[axis] / prim[axis]
    far = [a for a, c in g.terms if nov_val(c) > 0]
    vals = [nov_val(c) for _, c in g.terms if nov_val(c) > 0]
    ok = ok and len(far) == 1 and vals == [abs(length)]
    relation = relation_text(g)
    ok = ok and relation == "x*y - (1 + u1 + u2 + t^{1}*u1*u2)"
    try:
        build_web(ChargeMatrix(((1, 1, -1, -1),), 4), [0, 0, 0, 0])
        ok = False
    except ChargeError as exc:
        ok = ok and "degenerate Kähler parameters" in str(exc)
    with capsys.disabled():
        _report(8, "conifold charges: smooth web, square support, t^Q, degeneracy", ok, time.time() - t0, 1.0)
