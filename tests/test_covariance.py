"""GL(2,Z)⋉Q² covariance of the pipeline on seeded smooth webs.

A web is mapped by x -> Mx + t on its vertices and d -> Md on its ray
directions, with M unimodular and t rational.  Dart d of the image runs along
the image of dart d, so the face on the clockwise side of d corresponds to
the face on the clockwise side of d when det M = 1, and of its twin d ^ 1
when det M = -1, which reverses the orientation.  Under that correspondence
the dual points move by M^-T up to a translation, for either determinant
(the rotation by -90 degrees that turns an edge direction into its dual edge
conjugates M to det(M) M^-T, and the reversal swaps the sides of every edge),
and the t-exponents change by an affine function of the exponent, because
the corner locus of min h(F) + <alpha_F, x> is moved by x -> Mx + t.  Seen
from corresponding base points, x and Mx + t, the t-exponents are equal face
by face, which makes the normal form (the relation seen from a web vertex)
covariant.  Transport commutes with the map: covectors move by M^-T on their
first two entries and keep the last.
"""

import itertools
import json
import os
import random
from fractions import Fraction as Q

from helpers import apply_matrix, random_smooth_web, random_unimodular
from tropmirror.affine import build_cut_presentation, transport_covector
from tropmirror.charges import build_web, charges_from_json
from tropmirror.diagram import TropicalDiagram, is_smooth, validate
from tropmirror.lattice import cross2, vadd, vsub
from tropmirror.mirror import normalize_presentation, superpotential
from tropmirror.novikov import nov_val

KP2 = os.path.join(os.path.dirname(__file__), "..", "diagrams", "kp2.json")


def _image(web: TropicalDiagram, m, t) -> TropicalDiagram:
    vertices = tuple(vadd(apply_matrix(m, v), t) for v in web.vertices)
    rays = tuple((i, apply_matrix(m, d)) for i, d in web.rays)
    return TropicalDiagram(2, vertices, web.edges, rays)


def _det(m) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _inverse_transpose(m):
    (a, b), (c, d) = m
    det = _det(m)  # +-1, its own inverse
    return [[d * det, -c * det], [-b * det, a * det]]


def _face_map(web: TropicalDiagram, image: TropicalDiagram, det: int) -> list[int]:
    """The image's face id of each face of the web."""
    flip = 0 if det == 1 else 1
    phi: dict[int, int] = {}
    for d, f in enumerate(web.face_complex.dart_face):
        g = image.face_complex.dart_face[d ^ flip]
        assert phi.setdefault(f, g) == g
    assert sorted(phi.values()) == sorted(phi) == list(range(len(web.face_complex.faces)))
    return [phi[f] for f in range(len(phi))]


def _translation(a, b, m) -> set:
    """The set of b_i - m a_i; one element when b is m a up to a translation."""
    return {vsub(q, apply_matrix(m, p)) for p, q in zip(a, b)}


def _is_affine(points, values) -> bool:
    """Is there an affine function taking each point to its value?"""
    p0, v0 = points[0], values[0]
    for i, j in itertools.combinations(range(1, len(points)), 2):
        u, w = vsub(points[i], p0), vsub(points[j], p0)
        det = cross2(u, w)
        if det:
            break
    else:
        raise AssertionError("the points are collinear")
    r, s = values[i] - v0, values[j] - v0
    grad = (Q(r * w[1] - s * u[1], det), Q(s * u[0] - r * w[0], det))
    return all(v0 + grad[0] * (p[0] - p0[0]) + grad[1] * (p[1] - p0[1]) == v for p, v in zip(points, values))


def _exponents(diag: TropicalDiagram, normalized: bool, base=None) -> list:
    """The t-exponent of each face's dual point, raw or normalized."""
    g = superpotential(diag, base)
    if normalized:
        g = normalize_presentation(g)
    by_alpha = {alpha: nov_val(c) for alpha, c in g.terms}
    # the root face sits at the origin, so normalization moves no dual point
    return [by_alpha[alpha] for alpha in diag.dual.lattice_points]


def _check(web: TropicalDiagram, m, t) -> TropicalDiagram:
    image = _image(web, m, t)
    assert validate(image).ok == validate(web).ok
    assert len(image.face_complex.faces) == len(web.face_complex.faces)
    assert len(image.dual.triangles) == len(web.dual.triangles)
    assert is_smooth(image) == is_smooth(web)
    phi = _face_map(web, image, _det(m))
    points = web.dual.lattice_points
    moved = [image.dual.lattice_points[phi[f]] for f in range(len(points))]
    assert len(_translation(points, moved, _inverse_transpose(m))) == 1
    for normalized in (False, True):
        raw, mapped = _exponents(web, normalized), _exponents(image, normalized)
        diff = [mapped[phi[f]] - raw[f] for f in range(len(points))]
        assert _is_affine(list(points), diff)
    for x in web.vertices:
        raw, mapped = _exponents(web, False, x), _exponents(image, False, vadd(apply_matrix(m, x), t))
        assert [mapped[phi[f]] for f in range(len(points))] == raw
    return image


def _random_translation(rng: random.Random):
    return Q(rng.randint(-9, 9), rng.randint(1, 5)), Q(rng.randint(-9, 9), rng.randint(1, 5))


def test_unimodular_maps_of_random_webs():
    dets = []
    vertices = 0
    for seed in (5, 7):
        rng = random.Random(seed)
        for _ in range(60):
            web = random_smooth_web(rng)
            m = random_unimodular(rng)
            _check(web, m, _random_translation(rng))
            dets.append(_det(m))
            vertices += len(web.vertices)
    assert dets.count(-1) >= 20 and dets.count(1) >= 20
    assert vertices >= 1000


def test_transport_commutes_with_the_map():
    # open and closed generic polylines, half of the webs with raised cut
    # heights; the path moves by x -> Mx + t and keeps its last coordinate
    rng = random.Random(1507)
    checks = changed = 0
    for i in range(40):
        web = random_smooth_web(rng)
        m = random_unimodular(rng)
        if _det(m) != (1 if i % 2 else -1):
            m = [m[1], m[0]]
        t = _random_translation(rng)
        image = _image(web, m, t)
        tau = {web.edge_name(e): Q(rng.randint(0, 40), 17) for e in range(len(web.segments))} if i % 4 >= 2 else None
        pres, image_pres = build_cut_presentation(web, tau), build_cut_presentation(image, tau)
        xs = [c for v in web.vertices for c in v]
        lo, hi = int(min(xs)) - 2, int(max(xs)) + 2
        mt = _inverse_transpose(m)
        for k in range(8):
            path = [
                (Q(rng.randint(997 * lo, 997 * hi), 997), Q(rng.randint(997 * lo, 997 * hi), 997),
                 Q(rng.randint(-3000, 6000), 991))
                for _ in range(rng.randint(2, 5))
            ]
            if k % 2:
                path.append(path[0])
            image_path = [vadd(apply_matrix(m, p[:2]), t) + p[2:] for p in path]
            for g in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                r = transport_covector(pres, path, g)
                moved = transport_covector(image_pres, image_path, apply_matrix(mt, g) + g[2:])
                assert moved == apply_matrix(mt, r) + r[2:]
                checks += 1
                changed += r != g
    assert checks == 960 and changed >= 100, changed


def test_a_reflection_maps_dual_points_by_the_inverse_transpose_not_its_negative():
    with open(KP2, encoding="utf-8") as fh:
        web = build_web(*charges_from_json(json.load(fh))).diagram
    m = [[1, 2], [0, -1]]
    assert _det(m) == -1
    image = _check(web, m, (Q(1, 2), Q(-3)))
    phi = _face_map(web, image, -1)
    points = web.dual.lattice_points
    moved = [image.dual.lattice_points[phi[f]] for f in range(len(points))]
    minus = [[-c for c in row] for row in _inverse_transpose(m)]
    assert len(_translation(points, moved, minus)) > 1
