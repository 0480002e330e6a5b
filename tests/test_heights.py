"""Face heights from the gluing walk: the replaced second walk as an oracle, and the vertex identity.

The diagram is the corner locus of min over faces F of h(F) + <alpha_F, x>.
At a vertex of a d=2 diagram that minimum is attained exactly by the faces
of the vertex's dual cell; at a marked point of a d=1 diagram, exactly by
its two neighbouring faces.
"""

import random
from fractions import Fraction as Q

import pytest

from helpers import _walk_heights, random_smooth_web, shipped_diagrams
from tropmirror.diagram import TropicalDiagram
from tropmirror.lattice import dot

LINES = (
    TropicalDiagram(1, ((Q(0),), (Q(3, 2),), (Q(-2),))),
    TropicalDiagram(1, ((Q(7, 3),), (Q(-1, 5),), (Q(4),), (Q(-9),))),
    TropicalDiagram(1, ((Q(-5, 11),),)),
)


@pytest.fixture(scope="module")
def webs() -> list:
    """The shipped diagrams, three d=1 lines and 300 seeded random smooth webs."""
    rng = random.Random(1)
    return shipped_diagrams() + list(LINES) + [random_smooth_web(rng) for _ in range(300)]


def test_heights_match_the_walk_across_the_dual_edges(webs):
    assert sum(1 for d in webs if d.dim == 2) >= 303
    for diag in webs:
        assert diag.heights == _walk_heights(diag), diag
        assert diag.heights[diag.dual.root_face] == 0


def _values(diag, x) -> list:
    return [h + dot(alpha, x) for h, alpha in zip(diag.heights, diag.dual.lattice_points)]


def _argmin(values) -> set:
    best = min(values)
    return {f for f, v in enumerate(values) if v == best}


def test_each_vertex_is_where_its_dual_cell_attains_the_minimum(webs):
    vertices = 0
    for diag in webs:
        if diag.dim == 2:
            for v, cell in enumerate(diag.dual.triangles):
                assert _argmin(_values(diag, diag.vertices[v])) == set(cell), (diag, v)
                vertices += 1
        else:
            for e, pair in diag.dual.edge_duality:
                assert _argmin(_values(diag, diag.vertices[e])) == set(pair), (diag, e)
                vertices += 1
    assert vertices >= 1000
