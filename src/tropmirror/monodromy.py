"""Monodromy representation and the embedded dual graph.

Each edge of a validated diagram carries a primitive integer covector (the
annihilator of its direction, oriented by the global gauge), read from the
diagram's edge table, ``TropicalDiagram.covectors``, at the edge's row.
Crossing the cut of an edge glues by the shear I + c e_n^T in the basis
(eta_1, ..., eta_{n-1}, g_0): the covector c sits in the upper part of the
last column and acts by g_0 -> g_0 + c.  Every c has c_n = 0, so these shears
commute and composing them adds their c.  A loop is a combinatorial word of
signed edge crossings, (edge row, sign) pairs; its monodromy is the shear of
the signed covector sum.  The dual graph is embedded by summing edge covectors along a spanning tree
of the face adjacency graph, which is well defined because the covectors
around any diagram vertex sum to zero.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .diagram import TropicalDiagram
from .dual import gauge_points
from .lattice import Vec, is_primitive, vadd, vneg, vsub
from .record import frozen

Matrix = tuple[tuple[int, ...], ...]


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
    if not 0 <= e < len(covectors):
        raise MonodromyError(f"edge row {e} is out of range: the diagram has {len(covectors)} edges")
    return covectors[e]


def shear(cov: Sequence[int]) -> Matrix:
    """I + cov e_n^T, n = len(cov) + 1, for any integer cov (unchecked)."""
    n = len(cov) + 1
    return tuple(
        tuple(1 if i == j else 0 for j in range(n - 1)) + (cov[i] if i < n - 1 else 1,) for i in range(n)
    )


def standard_form_matrix(cov: Sequence[int], n: int) -> Matrix:
    """Unipotent matrix with the primitive covector in the upper last column."""
    cov = tuple(int(c) for c in cov)
    if n not in (2, 3):
        raise MonodromyError("standard form defined for n in {2, 3}")
    if len(cov) != n - 1:
        raise MonodromyError("covector length must be n - 1")
    if not is_primitive(cov):
        raise MonodromyError(f"covector {cov} is not primitive")
    return shear(cov)


def signed_sum(crossings: Iterable[tuple[Vec, int]], dim: int) -> Vec:
    """Sum of sign * cov over (cov, sign) crossings, each sign +1 or -1, in order."""
    total = (0,) * dim
    for cov, sign in crossings:
        if sign not in (1, -1):
            raise MonodromyError("crossing signs must be +1 or -1")
        total = vadd(total, cov) if sign == 1 else vsub(total, cov)
    return total


Loop = tuple[tuple[int, int], ...]  # (edge row, sign) crossings


def loop_monodromy(diag: TropicalDiagram, loop: Loop) -> Matrix:
    """Shear of the signed covector sum of a crossing word.

    The result applied to a covector gives its parallel transport around
    the loop; the sum need not be primitive.
    """
    return shear(signed_sum(((edge_covector(diag, e), sign) for e, sign in loop), diag.dim))


@frozen
class DualGraphEmbedding:
    positions: tuple[Vec, ...]  # indexed by face id
    root_face: int


def build_dual_graph(
    diag: TropicalDiagram, root_face: Optional[int] = None, sign: int = 1
) -> DualGraphEmbedding:
    """Embed the dual graph by covector sums along a spanning tree.

    Crossing an edge from its right face to its left face adds the edge
    covector.  Tree independence is verified on the non-tree edges (the sum of
    covectors around every loop vanishes).  Only the face adjacency is shared
    with the glued dual subdivision; the positions are an independent check
    of its lattice points.  The sum runs in the default sign gauge; the final
    gauging is dual.gauge_points, as for the subdivision.
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
    return DualGraphEmbedding(*gauge_points(positions, root_face, sign))
