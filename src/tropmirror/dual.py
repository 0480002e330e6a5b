"""Faces of a d=2 diagram's complement, the dual subdivision, and face heights.

The dual subdivision assigns one lattice point per face of the complement.
At a trivalent vertex with outgoing primitive directions sorted
counterclockwise, crossing an edge of direction d counterclockwise moves the
dual point by the edge's covector (``TropicalDiagram.covectors``), the
clockwise quarter turn (d_y, -d_x); that orientation makes
the vectors from each dual vertex to its neighbors point into the dual cone of
the corresponding unbounded face.  Local vertex cells are glued along bounded
edges, so the construction is geometric and serves as an independent check
against the monodromy-based embedding.  ``DualSubdivision.edge_duality``
pairs each edge row e with the faces on its left and right,
``(e, (left, right))``: in edge-table order in d=2, and in d=1 from left to
right along the line, where row e is marked point e.

Translation gauge: the distinguished face (the one whose dual vertex minimizes
the coordinate sum, i.e. the face reached heading toward (+1,+1); lexicographic
tie-break; configurable) is placed at the origin.  The opposite sign gauge
reflects the subdivision through the origin.

The face walk orders the darts at a vertex, and the rays at infinity, by one
exact sort key of a direction, ``_ccw``: (half-turn, off the x-axis, -x/y),
counterclockwise from angle 0, with no comparator.  The gluing checks each
edge row once and anchors the vertex cells along ``TropicalDiagram.tree``,
the diagram's one walk of its bounded edges.

``TropicalDiagram`` computes each of these once per diagram through its cached
properties; ``tropmirror.diagram`` binds the public names of this module too.
The gluing walk sums on integers, on the vertices over their common
denominator (``TropicalDiagram.scaled``), and builds one ``Fraction`` per
face height.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .diagram import DiagramError, TropicalDiagram, require_axioms
from .lattice import QPoint, Vec, as_int, as_point, cross2, dot, shown_point, vadd, vneg, vsub
from .record import frozen

Q = Fraction


# --- faces of the complement -------------------------------------------------

# Darts are numbered as in TropicalDiagram.rings: dart 2e runs along edge
# row e in its canonical direction and dart 2e + 1 the other way, so the
# twin of d is d ^ 1.  The tail of a ray's odd dart is the point at
# infinity, -1.  Faces are traced with the rotation rule next(d) =
# ccw-successor of twin(d); at infinity the rotation runs clockwise
# (descending ray angle, parallel rays ordered by their perpendicular offset).


@frozen
class FaceComplex:
    faces: tuple[tuple[int, ...], ...]  # by face id: its darts, in walk order
    dart_face: tuple[int, ...]  # by dart: the face on its clockwise side
    rotations: dict  # vertex -> ccw-ordered outgoing darts (-1 is infinity)


def _ccw(d: Sequence) -> tuple:
    """The exact counterclockwise sort key of a nonzero integer direction, from angle 0.

    It is (half-turn, off the x-axis, -x/y): the half-turn is 0 from angle 0
    up to but not including angle pi, and within a half-turn, off the axis,
    the angle grows as the cotangent x/y falls.
    """
    x, y = d
    return (y < 0 or y == 0 and x < 0, y != 0, y and Fraction(-x, y))


def faces(diag: TropicalDiagram) -> FaceComplex:
    """Enumerate the faces of the planar complement of a d=2 diagram."""
    if diag.dim != 2:
        raise DiagramError("face tracing requires dimension 2")
    if not diag.vertices:
        raise DiagramError("empty diagram has no faces")
    segments, covectors = diag.segments, diag.covectors
    ndarts = 2 * len(segments)

    # rotation at finite vertices: counterclockwise by outgoing direction
    def outgoing(d: int):
        u = segments[d >> 1][1]
        return _ccw(vneg(u) if d & 1 else u)

    rotation = {v: sorted(ring, key=outgoing) for v, ring in enumerate(diag.rings)}

    # rotation at infinity: the odd ray darts, by descending ray angle;
    # parallel rays ordered by ascending offset of their source along the
    # ray covector
    k = len(diag.edges)
    ends = sorted(
        ((_ccw(d), -dot(covectors[e], p), 2 * e + 1) for e, (p, d, _) in enumerate(segments[k:], k)), reverse=True
    )
    for a, b in zip(ends, ends[1:]):
        if a[:2] == b[:2]:
            raise DiagramError("two rays share a line; faces are ambiguous")
    rotation[-1] = [d for _, _, d in ends]

    successor = [0] * ndarts
    for ring in rotation.values():
        for i, d in enumerate(ring):
            successor[d] = ring[(i + 1) % len(ring)]

    dart_face: list[Optional[int]] = [None] * ndarts
    orbits: list[tuple[int, ...]] = []
    for start in range(ndarts):
        if dart_face[start] is not None:
            continue
        orbit = []
        d = start
        while True:
            orbit.append(d)
            dart_face[d] = len(orbits)
            d = successor[d ^ 1]
            if d == start:
                break
        orbits.append(tuple(orbit))

    return FaceComplex(tuple(orbits), tuple(dart_face), rotation)


# --- dual subdivision --------------------------------------------------------


@frozen
class DualSubdivision:
    lattice_points: tuple[Vec, ...]  # indexed by face id
    triangles: tuple[tuple[int, ...], ...]  # one cell of face ids per diagram vertex
    edge_duality: tuple[tuple[int, tuple[int, int]], ...]  # (edge row, (left, right) faces)
    root_face: int


def gauge_points(
    points: Sequence[Vec], root_face: Optional[int] = None, sign: int = 1
) -> tuple[tuple[Vec, ...], int]:
    """Reflect the dual points by the sign gauge and put the root face at the origin.

    The default root face is the one whose reflected dual vertex minimizes the
    coordinate sum (lex tie-break): the unbounded face reached heading toward
    +(1,...,1), so the support lands in standard position.  Returns the
    gauged points and the root face.
    """
    sign = as_int(sign, "sign gauge", DiagramError)
    if sign not in (1, -1):
        raise DiagramError("sign gauge must be +1 or -1")
    points = [tuple(sign * c for c in p) for p in points]
    if root_face is None:
        root_face = min(range(len(points)), key=lambda i: (sum(points[i]), points[i]))
    else:
        root_face = as_int(root_face, "root face", DiagramError)
    if not 0 <= root_face < len(points):
        raise DiagramError("root face out of range")
    shift = points[root_face]
    return tuple(vsub(p, shift) for p in points), root_face


def _pinned(points: Sequence[Vec], cells, duality, heights: Sequence[int], den: int):
    """The default gauge, and the heights over den with the root face's pinned to 0."""
    points, root = gauge_points(points)
    return DualSubdivision(points, cells, duality, root), tuple(Q(h - heights[root], den) for h in heights)


def _glue(diag: TropicalDiagram) -> tuple[DualSubdivision, tuple[Fraction, ...]]:
    """Glue the local vertex cells into the dual subdivision, and lift it.

    Returns the subdivision in the default gauge and the face heights h at
    the zero base point: the diagram is the corner locus of min over faces of
    h(F) + <alpha_F, x>, pinned by h(root) = 0.  At a vertex v that minimum
    is attained by the three faces around v, so one value level[v] per
    vertex, carried along the gluing walk, gives every height.  The sums are
    taken on integers, on the vertices over their common denominator
    (``diag.scaled``).
    """
    require_axioms(diag)
    den, xs = diag.scaled
    if diag.dim == 1:
        order = sorted(range(len(diag.vertices)), key=lambda i: diag.vertices[i][0])
        k = len(order)
        # face j is the j-th interval from the left; its dual coordinate is k-j,
        # so crossing marked point p to the right adds p to the height
        points = [(k - j,) for j in range(k + 1)]
        heights = [0]
        for i in order:
            heights.append(heights[-1] + xs[i][0])
        # marked point i is edge row i; its entry lists the faces on its left and right
        duality = tuple((i, (pos, pos + 1)) for pos, i in enumerate(order))
        return _pinned(points, (), duality, heights, den)

    complex_ = diag.face_complex
    covectors = diag.covectors
    nfaces = len(complex_.faces)

    # local cell of each vertex: faces in ccw dart order with corner offsets
    local: list[dict[int, Vec]] = []
    for v in range(len(xs)):
        ring = complex_.rotations[v]
        offsets: dict[int, Vec] = {}
        acc = (0, 0)
        # sector after dart ring[i] (ccw) lies clockwise of ring[i+1]
        for nxt in ring[1:] + ring[:1]:
            offsets[complex_.dart_face[nxt]] = acc  # the face on the clockwise side of nxt
            step = covectors[nxt >> 1]
            acc = vsub(acc, step) if nxt & 1 else vadd(acc, step)
        # acc is back at (0, 0): the steps are the turned outgoing directions,
        # which balancing makes sum to zero.  A face met twice around v (a
        # pinch) leaves fewer offsets than darts
        if len(offsets) != len(ring):
            raise DiagramError(f"face pinched at vertex {v}")
        local.append(offsets)

    # The two ends of edge row k share the faces on its sides, which the pinch
    # check made distinct, unless the web crosses itself there.  The local
    # cells are glued along the walk's tree: level[w] follows from the face
    # f0 that w shares with v, h(f0) + <alpha_f0, x> at x_w minus at x_v
    shared = [local[i].keys() & local[j].keys() for i, j in diag.edges]
    for k, sides in enumerate(shared):
        if len(sides) != 2:
            raise DiagramError(f"edge {k} does not separate two faces")
    anchor = [(0, 0)] * len(xs)
    level = [0] * len(xs)
    for v, k, w in diag.tree:
        # At either end, stepping from one side of edge k to the other adds
        # the same vector: the covector of edge k, whose sign flips with the
        # dart's parity as the sides swap.  So the other shared face gives
        # this anchor too, and needs no check.
        f0 = min(shared[k])
        anchor[w] = vadd(anchor[v], vsub(local[v][f0], local[w][f0]))
        level[w] = level[v] + dot(vadd(anchor[w], local[w][f0]), vsub(xs[w], xs[v]))

    # Every face gets a position: after a ray's odd dart its orbit steps into
    # the ring of the ray's vertex, so it holds a dart leaving a finite vertex,
    # and every vertex is anchored, as a disconnected diagram is refused above.
    # A face's height is read where the face is first placed and is not
    # compared elsewhere: once every position agrees (the loop refuses one
    # that does not), the cells are triangles oriented alike whose unshared
    # sides, the rays' dual edges in the rotation at infinity (by angle),
    # trace a convex polygon once, so the cells tile that polygon once.  The
    # web is then planar, each of its cycles is a sum of bounded face
    # boundaries, and around the boundary of a face F the level steps
    # <alpha_F, x_w - x_v> sum to zero, so the heights agree too.
    positions: list[Optional[Vec]] = [None] * nfaces
    heights = [0] * nfaces
    placed_at = [0] * nfaces  # the vertex that placed each face first
    for v in range(len(xs)):
        for f, off in local[v].items():
            p = vadd(anchor[v], off)
            if positions[f] is None:
                positions[f], heights[f], placed_at[f] = p, level[v] - dot(p, xs[v]), v
            elif positions[f] != p:
                raise DiagramError(
                    f"dual positions are inconsistent (monodromy obstruction): face {f} is at"
                    f" {shown_point(positions[f])} from vertex {placed_at[f]} and at {shown_point(p)} from vertex {v}"
                )

    triangles = tuple(tuple(sorted(cell)) for cell in local)
    # the two sides of edge row e differ by +-covectors[e], the quarter turn
    # of its direction, so each dual edge is orthogonal to its edge
    duality = tuple((e, (complex_.dart_face[2 * e + 1], complex_.dart_face[2 * e])) for e in range(len(covectors)))
    return _pinned(positions, triangles, duality, heights, den)


def dual_subdivision(
    diag: TropicalDiagram, root_face: Optional[int] = None, sign: int = 1
) -> DualSubdivision:
    """Dual lattice subdivision of a validated diagram.

    One lattice point per face of the complement, one cell per diagram vertex,
    dual edges orthogonal to the diagram edges they cross.  The gluing is done
    once per diagram (``diag.glued``); the gauge is applied to it on each call.
    """
    dual = diag.dual
    points, root = gauge_points(dual.lattice_points, root_face, sign)
    return DualSubdivision(points, dual.triangles, dual.edge_duality, root)


def is_smooth(diag: TropicalDiagram) -> bool:
    """True iff every cell of the dual subdivision is a unimodular triangle, |cross2(q - p, r - p)| = 1."""
    points = diag.dual.lattice_points
    for cell in diag.dual.triangles:
        # _glue refuses a diagram that is not trivalent, so every cell has three faces
        p, q, r = (points[i] for i in cell)
        if abs(cross2(vsub(q, p), vsub(r, p))) != 1:
            return False
    return True


# --- face heights and point location ------------------------------------


def face_heights(diag: TropicalDiagram, base: Optional[QPoint] = None) -> dict[int, Fraction]:
    """Lifting height of each face's dual vertex relative to a base point, by face id.

    The diagram is the corner locus of min over faces of h(F) + <alpha_F, x - b>.
    Moving the base point from 0 to b adds <alpha_F, b> to each height (alpha
    in the default gauge, root at the origin), so the heights lifted once per
    diagram give every base point exactly: h_b(F) = h_0(F) + <alpha_F, b>.
    The base point defaults to the origin.
    """
    heights, points = diag.heights, diag.dual.lattice_points
    base = (Q(0),) * diag.dim if base is None else as_point(base, diag.dim, "base point", DiagramError)
    return {f: h + dot(alpha, base) for f, (h, alpha) in enumerate(zip(heights, points))}


def locate_face(diag: TropicalDiagram, x: QPoint) -> Optional[int]:
    """Face of the complement containing x, or None if x lies on the diagram.

    The face is the unique minimizer of h(F) + <alpha_F, x>; on the diagram
    the minimum is attained twice.
    """
    x = as_point(x, diag.dim, "point", DiagramError)
    values = [h + dot(alpha, x) for h, alpha in zip(diag.heights, diag.dual.lattice_points)]
    best = min(values)
    winners = [f for f, val in enumerate(values) if val == best]
    return winners[0] if len(winners) == 1 else None
