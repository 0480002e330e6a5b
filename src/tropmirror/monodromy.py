"""Edge covectors and the embedded dual graph.

Each edge of a validated diagram carries a primitive integer covector (the
annihilator of its direction, oriented by the global gauge), read from the
diagram's edge table, ``TropicalDiagram.covectors``, at the edge's row.
Crossing the cut of an edge with sign +1 or -1 adds sign * c, times the g_0
coefficient, to the eta part of a covector written in the basis (eta_1, ...,
eta_{n-1}, g_0).  Every c has c_n = 0, so these gluings commute, and the
monodromy of a loop or a path is the signed sum of the covectors it crosses
(``affine.transport_covector``).  The dual graph is embedded by summing edge
covectors along a spanning tree of the face adjacency graph, which is well
defined because the covectors around any diagram vertex sum to zero.  The
embedding is returned in the default gauge only: every gauge is
x -> sign * (x - x_root), so two embeddings agree in one gauge exactly when
they differ by a translation, which is when they agree in every gauge.
"""

from __future__ import annotations

from typing import Optional

from .diagram import TropicalDiagram
from .dual import gauge_points
from .lattice import Vec, as_int, vadd, vneg, vsub


class MonodromyError(ValueError):
    pass


def edge_covector(diag: TropicalDiagram, e: int) -> Vec:
    """Primitive integer covector annihilating the direction of edge row e: ``diag.covectors[e]``.

    Oriented by the dual-cone gauge: the covector equals the difference of the
    dual vertices (left face minus right face) across the edge.  In dimension
    1 every marked point carries the covector (1,).  A row that is negative
    or past the end of the edge table is refused.
    """
    covectors = diag.covectors
    e = as_int(e, "edge row", MonodromyError)
    if not 0 <= e < len(covectors):
        raise MonodromyError(f"edge row {e} is out of range: the diagram has {len(covectors)} edges")
    return covectors[e]


def build_dual_graph(diag: TropicalDiagram) -> tuple[Vec, ...]:
    """Embed the dual graph by covector sums along a spanning tree, indexed by face id.

    Crossing an edge from its right face to its left face adds the edge
    covector.  Tree independence is verified on the non-tree edges (the sum of
    covectors around every loop vanishes).  Only the face adjacency is shared
    with the glued dual subdivision; the positions are an independent check
    of its lattice points.  They come back in the default gauge,
    ``dual.gauge_points``, as the glued ``diag.dual`` does; the gauge cannot
    change whether the two agree.
    """
    nfaces = len(diag.dual.lattice_points)
    positions: list[Optional[Vec]] = [None] * nfaces
    positions[0] = (0,) * diag.dim
    edge_pairs = []
    adjacency: dict[int, list[tuple[int, Vec]]] = {i: [] for i in range(nfaces)}
    for e, (left, right) in diag.dual.edge_duality:
        cov = edge_covector(diag, e)
        adjacency[right].append((left, cov))
        adjacency[left].append((right, vneg(cov)))
        edge_pairs.append((left, right, cov))
    stack = [0]
    while stack:
        f = stack.pop()
        for g, cov in adjacency[f]:
            if positions[g] is None:
                positions[g] = vadd(positions[f], cov)
                stack.append(g)
    if any(p is None for p in positions):
        raise MonodromyError("face adjacency graph is not connected")
    for left, right, cov in edge_pairs:
        if vsub(positions[left], positions[right]) != cov:
            raise MonodromyError("covector cocycle fails: embedding depends on the tree")
    return gauge_points(positions)[0]
