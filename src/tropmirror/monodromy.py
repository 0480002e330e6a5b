"""Monodromy representation and the embedded dual graph.

Each edge of a validated diagram carries a primitive integer covector (the
annihilator of its direction, oriented by the global gauge).  The monodromy
around an edge is unipotent: in the basis (eta_1, ..., eta_{n-1}, g_0) it is
the identity matrix plus the covector in the upper part of the last column,
acting by g_0 -> g_0 + (a, b).  Loops are combinatorial words of signed edge
crossings; their monodromy is the ordered product of the standard-form
matrices.  The dual graph is embedded by summing edge covectors along a
spanning tree of the face adjacency graph, which is well defined because the
covectors around any diagram vertex sum to zero.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .diagram import EdgeRef, TropicalDiagram, edge_direction
from .dual import gauge_points, is_smooth
from .lattice import Vec, is_primitive, rot_minus90, vadd, vneg, vsub
from .record import frozen

Matrix = tuple[tuple[int, ...], ...]


class MonodromyError(ValueError):
    pass


def edge_covector(diag: TropicalDiagram, ref: EdgeRef) -> Vec:
    """Primitive integer covector annihilating the edge direction.

    Oriented by the dual-cone gauge: the covector equals the difference of the
    dual vertices (left face minus right face) across the edge.  In dimension
    1 every marked point carries the covector (1,).
    """
    # a point ref on a web falls through to edge_direction: it has no direction
    if diag.edge_index(ref) is None and (diag.dim == 1 or ref.kind != "point"):
        raise MonodromyError(f"{ref} is not an edge of the diagram")
    return (1,) if diag.dim == 1 else rot_minus90(edge_direction(diag, ref))


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def mat_apply(a: Matrix, v: Sequence[int]) -> Vec:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def standard_form_matrix(cov: Sequence[int], n: int) -> Matrix:
    """Unipotent matrix with the covector in the upper last column."""
    cov = tuple(int(c) for c in cov)
    if n not in (2, 3):
        raise MonodromyError("standard form defined for n in {2, 3}")
    if len(cov) != n - 1:
        raise MonodromyError("covector length must be n - 1")
    if not is_primitive(cov):
        raise MonodromyError(f"covector {cov} is not primitive")
    rows = []
    for i in range(n):
        row = [1 if i == j else 0 for j in range(n)]
        if i < n - 1:
            row[n - 1] = cov[i]
        rows.append(tuple(row))
    return tuple(rows)


def crossing_matrix(cov: Sequence[int], sign: int, n: int) -> Matrix:
    """Gluing matrix of a signed crossing: M(cov) forward, M(-cov) = M(cov)^-1 back."""
    if sign not in (1, -1):
        raise MonodromyError("crossing signs must be +1 or -1")
    return standard_form_matrix(tuple(sign * c for c in cov), n)


Loop = tuple[tuple[EdgeRef, int], ...]


def loop_monodromy(diag: TropicalDiagram, loop: Loop) -> Matrix:
    """Ordered product of signed standard-form matrices along a crossing word.

    The first crossing acts first: the result applied to a covector gives its
    parallel transport around the loop.
    """
    n = diag.dim + 1
    total = identity_matrix(n)
    for ref, sign in loop:
        total = mat_mul(crossing_matrix(edge_covector(diag, ref), sign, n), total)
    return total


@frozen
class DualGraphEmbedding:
    positions: tuple[Vec, ...]  # indexed by face id
    adjacency: tuple[tuple[int, int], ...]
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
    if not is_smooth(diag):
        raise MonodromyError("diagram is not smooth")
    nfaces = len(diag.dual.lattice_points)
    positions: list[Optional[Vec]] = [None] * nfaces
    positions[0] = (0,) * diag.dim
    edge_pairs = []
    adjacency: dict[int, list[tuple[int, Vec]]] = {i: [] for i in range(nfaces)}
    for ref, (left, right) in diag.dual.edge_duality:
        cov = edge_covector(diag, ref)
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
    final, root = gauge_points(positions, root_face, sign)
    pairs = tuple(sorted({(min(l, r), max(l, r)) for l, r, _ in edge_pairs}))
    return DualGraphEmbedding(final, pairs, root)


def vertex_loop(diag: TropicalDiagram, v: int) -> Loop:
    """The loop crossing the three edges around a vertex counterclockwise.

    Its monodromy is the identity: this is the cocycle relation in matrix form.
    """
    refs = diag.edge_refs()
    # crossing counterclockwise around v passes each edge in its canonical
    # direction when v's dart along it is even, against it when odd
    return tuple((refs[d >> 1], -1 if d & 1 else 1) for d in diag.face_complex.rotations[v])
