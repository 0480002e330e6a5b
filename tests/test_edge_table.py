"""The diagram's edge table against the code it replaced.

``TropicalDiagram.rings`` (each vertex's outgoing darts),
``TropicalDiagram.segments`` (each edge's anchor, primitive direction and
far end) and ``TropicalDiagram.covectors`` (the quarter turn of each
direction) are read by validation, the face walk, the gluing, the monodromy
and transport.
Validation is compared with the stars-based ``validate_oracle`` on seeded
broken diagrams, and the transport predicates with the kind-switching
``segment_crossings_oracle`` on seeded paths, a third of whose points sit
exactly on vertices, edge midpoints, edge lines or cut heights.
"""

import random
from fractions import Fraction as Q

from helpers import (
    edge_direction_oracle,
    edge_anchor,
    edge_end_oracle,
    on_edge_oracle,
    primitive_q_oracle,
    random_smooth_web,
    segment_crossings_oracle,
    shipped_diagrams,
    validate_oracle,
)
from tropmirror.affine import AffineError, build_cut_presentation, chamber_of, transport_crossings
from tropmirror.diagram import TropicalDiagram, validate
from tropmirror.lattice import vadd, vsub

LINE = TropicalDiagram(1, ((Q(0),), (Q(3, 2),), (Q(-2),)))


def _random_diagram(rng: random.Random) -> TropicalDiagram:
    """A small d=2 diagram that mostly breaks some axiom.

    Some vertices get a closing ray that balances them; rays may be
    non-primitive or repeat a direction at their vertex, edges may repeat,
    and sparse edges leave vertices unreachable.
    """
    verts: list = []
    target = rng.randint(1, 5)
    while len(verts) < target:
        p = (Q(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))), Q(rng.randint(-4, 4), rng.choice((1, 1, 2))))
        if p not in verts:
            verts.append(p)
    n = len(verts)
    edges = []
    if n > 1:
        for _ in range(rng.randint(0, n + 1)):
            i, j = rng.sample(range(n), 2)
            edges.append((i, j))
        if edges and rng.random() < 0.1:
            edges.append(rng.choice(edges))
    rays = []
    for _ in range(rng.randint(0, 6)):
        v = rng.randrange(n)
        kind = rng.randrange(6)
        if kind == 0:
            d = (2 * rng.randint(-2, 2), 2 * rng.randint(1, 2))  # not primitive
        elif kind == 1 and rays:
            v, d = rng.choice(rays)  # repeated at its vertex
        elif kind == 2:
            d = (0, 0)  # minus the outgoing directions so far
            for i, j in edges:
                if v in (i, j):
                    u = primitive_q_oracle(vsub(verts[j], verts[i]))
                    d = vsub(d, u) if v == i else vadd(d, u)
            for w, u in rays:
                if w == v:
                    d = vsub(d, u)
            d = d if d != (0, 0) else (1, 0)
        else:
            d = rng.choice(((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1), (1, 2), (-2, 1), (3, -1)))
        rays.append((v, d))
    return TropicalDiagram(2, tuple(verts), tuple(edges), tuple(rays))


def test_validate_matches_the_stars_oracle_on_broken_diagrams():
    rng = random.Random(14)
    forms = ("has valence", "direction sum", "repeats direction", "not primitive", "vertices unreachable")
    counts = dict.fromkeys(forms, 0)
    for _ in range(3000):
        diag = _random_diagram(rng)
        report = validate(diag)
        assert report == validate_oracle(diag), diag
        for _, text in report.offenders:
            counts.update({form: counts[form] + 1 for form in forms if form in text})
    assert min(counts.values()) >= 100, counts


def test_validate_matches_the_stars_oracle_on_webs():
    rng = random.Random(15)
    webs = shipped_diagrams() + [random_smooth_web(rng) for _ in range(200)]
    webs += [TropicalDiagram(2, ()), TropicalDiagram(1, ())]
    for diag in webs:
        assert validate(diag) == validate_oracle(diag)


def test_segments_match_the_ref_switching_edge_helpers():
    rng = random.Random(16)
    for diag in shipped_diagrams() + [LINE] + [random_smooth_web(rng) for _ in range(30)]:
        for e in range(len(diag.segments)):
            direction = None if diag.dim == 1 else edge_direction_oracle(diag, e)
            assert diag.segments[e] == (edge_anchor(diag, e), direction, edge_end_oracle(diag, e))
            assert diag.covectors[e] == ((1,) if diag.dim == 1 else (direction[1], -direction[0]))


def _on_line(rng: random.Random, diag: TropicalDiagram, e: int):
    """A point exactly on the line of edge row e: an end, the middle, or beyond."""
    anchor = edge_anchor(diag, e)
    if diag.dim == 1:
        return anchor
    d = edge_direction_oracle(diag, e)
    end = edge_end_oracle(diag, e)
    end = Q(2) if end is None else end
    s = rng.choice((Q(-1), Q(0), end / 2, end, end + 1))
    return tuple(a + s * c for a, c in zip(anchor, d))


def _path(rng: random.Random, pres) -> list:
    """Two to four points, about a third of them on the diagram or at cut heights.

    A point on the diagram is sometimes followed by one on the same edge's
    line, so that some segments run along a cut.
    """
    diag = pres.diagram
    heights = sorted(set(pres.taus))
    center = diag.vertices[rng.randrange(len(diag.vertices))]
    path: list = []
    e = None
    while len(path) < rng.randint(2, 4):
        if e is not None and rng.random() < 0.5:
            x = _on_line(rng, diag, e)
        elif rng.random() < 0.35:
            e = rng.randrange(len(diag.segments))
            x = _on_line(rng, diag, e)
        else:
            e = None
            x = tuple(c + Q(rng.randint(-24, 24), rng.randint(1, 7)) for c in center)
        t = rng.choice(heights) if rng.random() < 0.35 else Q(rng.randint(-12, 12), rng.randint(1, 4))
        p = (*x, t)
        if not path or p != path[-1]:
            path.append(p)
    return path


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AffineError as exc:
        return str(exc)


def _crossings_oracle(pres, path) -> list:
    out = []
    for seg, (a, b) in enumerate(zip(path, path[1:])):
        out.extend(segment_crossings_oracle(pres, seg, a, b))
    return out


def _part_at_oracle(diag: TropicalDiagram, x) -> str:
    if diag.dim == 2:
        for i, v in enumerate(diag.vertices):
            if v == x:
                return f"vertex {i}"
    return next(diag.edge_name(e) for e in range(len(diag.segments)) if on_edge_oracle(diag, e, x))


def test_transport_and_chambers_match_the_ref_switching_oracle():
    rng = random.Random(17)
    diagrams = [random_smooth_web(rng, 8) for _ in range(26)] + [LINE, LINE]
    outcomes = {"crossings": 0, "runs along": 0, "endpoint": 0, "discriminant": 0, "on wall": 0}
    npaths = 0
    for k, diag in enumerate(diagrams):
        names = [diag.edge_name(e) for e in range(len(diag.segments))]
        raised = rng.sample(names, rng.randint(1, len(names))) if k % 2 else []
        tau = {name: Q(rng.randint(-3, 6), rng.randint(1, 3)) for name in raised}
        pres = build_cut_presentation(diag, tau)
        for _ in range(60):
            path = _path(rng, pres)
            npaths += 1
            got = _outcome(transport_crossings, pres, path)
            assert got == _outcome(_crossings_oracle, pres, path), (diag, tau, path)
            if isinstance(got, list):
                outcomes["crossings"] += bool(got)
            else:
                outcomes.update({key: outcomes[key] + 1 for key in outcomes if key in got})
            chamber = _outcome(chamber_of, pres, path[0])
            if chamber.startswith("on wall"):
                where = ", ".join(str(c) for c in path[0])
                assert chamber == f"on wall: ({where}) lies over {_part_at_oracle(diag, path[0][:-1])}"
                outcomes["on wall"] += 1
    assert npaths >= 1500
    assert min(outcomes.values()) >= 50, outcomes
