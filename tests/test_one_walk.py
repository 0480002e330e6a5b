"""Jobs that are written once, against the code that wrote them twice.

``TropicalDiagram.tree`` is the one depth-first walk of a web's bounded
edges: ``validate`` counts its triples for connectivity and ``_glue``
anchors the vertex cells along them.  The face walk orders directions by
one exact key, ``_ccw``, where it sorted through ``functools.cmp_to_key``
with ``_ccw_cmp`` (now in ``tests/helpers.py``).  ``validate`` and the
gluing are compared with ``validate_oracle`` and ``glue_oracle``, refusal
texts included, on seeded smooth webs, the ladder's charge webs and the
crossing corpus of ``tests/test_faces.py``.
"""

import functools
import itertools
import random

import pytest

from helpers import _ccw_cmp, charge_ladder_webs, glue_oracle, random_smooth_web, shipped_diagrams, validate_oracle
from test_edge_table import _random_diagram
from test_faces import CROSSING, _balanced_web
from tropmirror.diagram import DiagramError, TropicalDiagram, diagram_from_json, validate
from tropmirror.dual import _ccw


def _outcome(fn, diag):
    try:
        return fn(diag)
    except DiagramError as exc:
        return f"DiagramError: {exc}"


def test_the_key_orders_directions_like_the_comparator():
    directions = [d for d in itertools.product(range(-5, 6), repeat=2) if d != (0, 0)]
    random.Random(31).shuffle(directions)
    assert sorted(directions, key=_ccw) == sorted(directions, key=functools.cmp_to_key(_ccw_cmp))
    for a, b in itertools.combinations(directions, 2):
        assert (_ccw(a) == _ccw(b)) == (_ccw_cmp(a, b) == 0)
    assert [d for d in sorted(directions, key=_ccw) if abs(d[0]) + abs(d[1]) == 1] == [(1, 0), (0, 1), (-1, 0), (0, -1)]


def test_the_tree_reaches_each_vertex_once_along_its_edges():
    rng = random.Random(32)
    diagrams = shipped_diagrams() + [random_smooth_web(rng) for _ in range(20)] + [_random_diagram(rng) for _ in range(500)]
    unreached = 0
    for diag in diagrams:
        reached = {0}
        for v, k, w in diag.tree:
            assert v in reached and w not in reached and set(diag.edges[k]) == {v, w}
            reached.add(w)
        connected = "connected" not in diag.report.failed_axioms()
        assert connected == (len(reached) == len(diag.vertices))
        unreached += not connected
    assert unreached >= 50
    assert TropicalDiagram(2, ()).tree == TropicalDiagram(1, ()).tree == ()


@pytest.mark.parametrize("corpus", ["smooth", "ladder", "crossing"])
def test_validate_and_the_gluing_match_their_oracles(corpus):
    if corpus == "smooth":
        rng = random.Random(33)
        diagrams = [random_smooth_web(rng) for _ in range(60)]
    elif corpus == "ladder":
        diagrams = charge_ladder_webs(1) + charge_ladder_webs(2)
    else:
        diagrams = [diagram_from_json(data) for data, _ in CROSSING]
    for diag in diagrams:
        assert validate(diag) == validate_oracle(diag)
        assert _outcome(lambda d: d.glued, diag) == _outcome(glue_oracle, diag)
    if corpus == "crossing":
        assert [_outcome(lambda d: d.glued, d) for d in diagrams] == [f"DiagramError: {m}" for _, m in CROSSING]


def test_an_edge_that_separates_no_two_faces_is_named_by_its_row():
    """The gluing checks the edge rows in order; the old one named the first edge its walk met.

    On this self-crossing hexagon, the 581st web of ``_balanced_web`` at seed
    27, edges 2 and 4 both fail, and the walk met edge 4 first.
    """
    rng = random.Random(27)
    for _ in range(581):
        diag = _balanced_web(rng, cycle=rng.random() < 0.5)
    assert diag.edges == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0))
    assert [k for v, k, w in diag.tree] == [0, 5, 4, 3, 2]
    assert _outcome(lambda d: d.glued, diag) == "DiagramError: edge 2 does not separate two faces"
    assert _outcome(glue_oracle, diag) == "DiagramError: edge 4 does not separate two faces"
