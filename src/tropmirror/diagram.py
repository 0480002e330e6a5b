"""Toric diagrams as tropical curves: the record, its edge table, validation, and JSON.

A diagram lives in dimension 1 or 2.  In dimension 2 it is a planar graph with
rational vertices, straight bounded edges and rays with primitive integer
directions; in dimension 1 it is a finite set of marked points on a line.
Validation checks the semi-toric axioms: trivalence, balancing (the primitive
outgoing directions at each vertex sum to zero), primitivity of ray
directions, and connectivity; ``require_axioms`` is the one gate that refuses
a diagram failing them, for the gluing and the cut presentation alike.

The vertex table, ``TropicalDiagram.scaled`` (the vertices as integer points
over one common denominator), is where a diagram's rationals become
integers: the duplicate-vertex check, the edge directions and the gluing's
sums read it.  The edge table, ``TropicalDiagram.rings`` (the darts leaving
each vertex), ``TropicalDiagram.segments`` (where each edge sits) and
``TropicalDiagram.covectors`` (the covector each edge's cut glues by), is
built once per diagram; validation, the face walk, the gluing, the monodromy
and transport all read it.  ``TropicalDiagram.tree`` is the one walk of the
bounded edges, depth first from vertex 0, as ``(v, k, w)`` triples:
validation counts them for connectivity and the gluing anchors its cells
along them, so only this module follows an edge dart to its far end.  Every
layer refers to an edge by its row e in that table: the bounded edges in
stored order, then the rays, or in d=1 the marked points.  Only this module
turns a row into a name (``TropicalDiagram.edge_name``: edge3, ray1, point0)
and a tau file's spelling back into a name (``parse_edge_name``).

The faces of the complement, the dual subdivision, the face heights and point
location are in ``tropmirror.dual``; their public names are bound here too.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Optional

from .lattice import (
    OVER,
    QPoint,
    Vec,
    as_int,
    as_point,
    common_denominator,
    content,
    is_primitive,
    malformed,
    over_limit,
    primitive,
    printed,
    read_int,
    read_list,
    read_object,
    rot_minus90,
    shown,
    shown_point,
    vadd,
    vneg,
    vsub,
)
from .record import frozen

Q = Fraction


class DiagramError(ValueError):
    pass


@frozen
class TropicalDiagram:
    dim: int
    vertices: tuple[QPoint, ...]
    edges: tuple[tuple[int, int], ...] = ()
    rays: tuple[tuple[int, Vec], ...] = ()

    def __post_init__(self):
        dim = as_int(self.dim, "dimension", DiagramError)
        if dim not in (1, 2):
            raise DiagramError("dimension must be 1 or 2")
        object.__setattr__(self, "dim", dim)
        verts = tuple(as_point(v, dim, "vertex", DiagramError) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        xs = self.scaled[1]
        if len(set(xs)) != len(xs):
            raise DiagramError("two vertices coincide")
        edges = tuple(as_point(e, 2, "edge", DiagramError, read_int) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        if dim == 1 and (edges or self.rays):
            raise DiagramError("d=1 diagrams carry no edges or rays")
        n = len(verts)
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise DiagramError("edge endpoint out of range")
            if i == j:
                raise DiagramError("edge endpoints must be distinct")
        rays = []
        for i, d in self.rays:
            i = as_int(i, "ray vertex", DiagramError)
            if not 0 <= i < n:
                raise DiagramError("ray vertex out of range")
            d = as_point(d, dim, "ray direction", DiagramError, read_int)
            if all(c == 0 for c in d):
                raise DiagramError("ray direction is zero")
            rays.append((i, d))
        object.__setattr__(self, "rays", tuple(rays))

    def edge_name(self, e: int) -> str:
        """The name of edge row e: edge<k> for the bounded edges, then ray<r>, or (d=1) point<i>."""
        if self.dim == 1:
            return f"point{e}"
        k = len(self.edges)
        return f"edge{e}" if e < k else f"ray{e - k}"

    # Derived geometry: computed on first use and stored on this instance, so
    # every layer shares one copy.  The diagram is frozen, so the facts never
    # go stale; a diagram rebuilt from its fields starts with nothing cached.

    @functools.cached_property
    def report(self) -> ValidationReport:
        return validate(self)

    @functools.cached_property
    def scaled(self) -> tuple[int, tuple[Vec, ...]]:
        """(den, xs): the vertices as integer points over one common denominator.

        den is the lcm of every coordinate's denominator and xs[v] is vertex v
        times den, so equal vertices have equal rows, and the duplicate check,
        the edge directions and the gluing's sums are integer operations.
        Construction refuses a den of more than DIGITS digits.
        """
        den = common_denominator((c for v in self.vertices for c in v), "vertices", DiagramError)
        return den, tuple(tuple(c.numerator * (den // c.denominator) for c in v) for v in self.vertices)

    @functools.cached_property
    def rings(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, its outgoing darts in dart order.

        Dart 2e runs along edge row e in its canonical direction (stored
        order for edges, outward for rays) and dart 2e + 1 the other way, so
        the twin of dart d is d ^ 1, and edge darts come before ray darts.
        The tail of an edge dart d is edges[d >> 1][d & 1]; the tail of a
        ray's odd dart is the point at infinity, which has no ring here.
        """
        rings: list[list[int]] = [[] for _ in self.vertices]
        for k, pair in enumerate(self.edges):
            for side, v in enumerate(pair):
                rings[v].append(2 * k + side)
        for e, (v, _) in enumerate(self.rays, len(self.edges)):
            rings[v].append(2 * e)
        return tuple(map(tuple, rings))

    @functools.cached_property
    def tree(self) -> tuple[tuple[int, int, int], ...]:
        """The bounded edges of a depth-first walk from vertex 0, as (v, k, w) in walk order.

        Edge row k takes the walk from v, reached before, to w, reached here
        first; the triples are empty for an empty diagram.  The far end of
        edge dart d is edges[d >> 1][~d & 1], the tail of its twin.
        """
        tree = []
        seen = {0}
        stack = [0] if self.vertices else []
        first_ray = 2 * len(self.edges)
        while stack:
            v = stack.pop()
            for d in self.rings[v]:
                if d >= first_ray:
                    break  # a ring lists its ray darts last
                w = self.edges[d >> 1][~d & 1]
                if w not in seen:
                    seen.add(w)
                    tree.append((v, d >> 1, w))
                    stack.append(w)
        return tuple(tree)

    @functools.cached_property
    def segments(self) -> tuple[tuple[QPoint, Optional[Vec], Optional[Fraction]], ...]:
        """Per edge row, (anchor, primitive direction, end).

        The edge is anchor + s*direction for 0 <= s <= end; end is None for a
        ray.  A d=1 marked point is (v, None, 0).  A bounded edge's direction
        is primitive(w) and its end content(w) / den, for w the difference of
        its ends' rows of ``scaled``.
        """
        verts = self.vertices
        if self.dim == 1:
            return tuple((v, None, 0) for v in verts)
        den, xs = self.scaled
        diffs = [(i, vsub(xs[j], xs[i])) for i, j in self.edges]
        edges = tuple((verts[i], primitive(w), Q(content(w), den)) for i, w in diffs)
        return edges + tuple((verts[i], primitive(d), None) for i, d in self.rays)

    @functools.cached_property
    def covectors(self) -> tuple[Vec, ...]:
        """Per edge row, the primitive integer covector of its cut.

        In d=2 it is the clockwise quarter turn (y, -x) of the segments
        direction, which annihilates the edge and equals the left face's dual
        point minus the right face's; in d=1 every marked point carries (1,).
        """
        if self.dim == 1:
            return ((1,),) * len(self.vertices)
        return tuple(rot_minus90(d) for _, d, _ in self.segments)

    @functools.cached_property
    def face_complex(self) -> FaceComplex:
        return faces(self)

    @functools.cached_property
    def glued(self) -> tuple[DualSubdivision, tuple[Fraction, ...]]:
        """The dual subdivision and the face heights, from one gluing walk."""
        return _glue(self)

    @property
    def dual(self) -> DualSubdivision:
        """The glued dual subdivision in the default gauge; see dual_subdivision."""
        return self.glued[0]

    @property
    def heights(self) -> tuple[Fraction, ...]:
        """Face heights at the zero base point, in the default gauge, by face id."""
        return self.glued[1]


def parse_edge_name(text: str) -> str:
    """An edge name as a tau file may spell it, in the spelling of edge_name.

    The kind is followed, after surrounding whitespace, by an optional sign
    and ASCII digits: so edge01, ray+1 and "edge 1" read as edge1, ray1 and
    edge1, while edge1_0 and non-ASCII digits are refused.  Whether the
    diagram has such an edge is not checked here.
    """
    for kind in ("edge", "ray", "point"):
        if text.startswith(kind):
            number = text[len(kind):].strip()
            digits = number[1:] if number[:1] in ("+", "-") else number
            if digits.isascii() and digits.isdigit():
                return f"{kind}{read_int(number)}"
    raise DiagramError(f"cannot parse edge reference {shown(text)}")


# --- validation -------------------------------------------------------------


AXIOMS = ("trivalent", "balanced", "primitive_directions", "connected")


@frozen
class ValidationReport:
    """The failed checks, as (axiom, witness) pairs; an axiom holds iff it names none."""

    offenders: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.offenders

    def failed_axioms(self) -> list[str]:
        failed = {axiom for axiom, _ in self.offenders}
        return [axiom for axiom in AXIOMS if axiom in failed]

    def to_json(self) -> dict:
        failed = self.failed_axioms()
        flags = {axiom: axiom not in failed for axiom in AXIOMS}
        return {"ok": self.ok, **flags, "offenders": [list(o) for o in self.offenders]}


EMPTY_DIAGRAM = "empty diagram has no vertices"


def validate(diag: TropicalDiagram) -> ValidationReport:
    """Check the semi-toric axioms; failures are reported, not raised."""
    if not diag.vertices:
        # a web or line with no vertex has one face, so nothing downstream can run
        return ValidationReport((("connected", EMPTY_DIAGRAM),))
    if diag.dim == 1:
        return ValidationReport(())
    offenders: list[tuple[str, str]] = []
    # rays are summed as stored, so a non-primitive one is reported, not rescaled
    stored = [d for _, d, _ in diag.segments[: len(diag.edges)]] + [d for _, d in diag.rays]
    for v, ring in enumerate(diag.rings):
        if len(ring) != 3:
            offenders.append(("trivalent", f"vertex {v} has valence {len(ring)}"))
        dirs = [vneg(stored[d >> 1]) if d & 1 else stored[d >> 1] for d in ring]
        total = dirs[0] if dirs else None
        for d in dirs[1:]:
            total = vadd(total, d)
        if dirs and any(c != 0 for c in total):
            witness = f"vertex {v} direction sum {shown_point(total, True)}"
            if OVER in witness:  # the sum has a number too long to print
                witness = over_limit(f"vertex {v} direction sum has a number")
            offenders.append(("balanced", witness))
        seen = set()
        for d in dirs:
            if tuple(d) in seen:
                # a repeated outgoing direction is a weight-2 edge in disguise
                offenders.append(("primitive_directions", f"vertex {v} repeats direction {shown_point(d, True)}"))
            seen.add(tuple(d))
    for r, (_, d) in enumerate(diag.rays):
        if not is_primitive(d):
            offenders.append(("primitive_directions", f"ray {r} direction {shown_point(d, True)} not primitive"))
    # connectivity over bounded edges: the walk's tree reaches every vertex
    unreached = len(diag.vertices) - 1 - len(diag.tree)
    if unreached:
        offenders.append(("connected", f"{unreached} vertices unreachable"))
    return ValidationReport(tuple(offenders))


def require_axioms(diag: TropicalDiagram):
    """Refuse a diagram that fails an axiom: the gate of the gluing and of the cut presentation.

    An empty diagram is refused as such, and connectivity is named only when
    the local axioms (trivalence, balancing, primitive directions) hold.
    """
    if not diag.vertices:
        raise DiagramError(EMPTY_DIAGRAM)
    failed = diag.report.failed_axioms()
    failed = [a for a in failed if a != "connected"] or failed
    if failed:
        raise DiagramError("diagram fails axioms: " + ", ".join(failed))


# --- JSON --------------------------------------------------------------------


def diagram_to_json(diag: TropicalDiagram) -> dict:
    """The diagram as JSON; a vertex with a coordinate too long to print is refused by its row."""
    vertices = [
        printed(lambda: [str(c) for c in v], "web vertex {} has a coordinate", i, error=DiagramError)
        for i, v in enumerate(diag.vertices)
    ]
    out: dict = {"dim": diag.dim, "vertices": vertices}
    if diag.dim == 2:
        out["edges"] = [[i, j] for i, j in diag.edges]
        out["rays"] = [{"at": i, "dir": list(d)} for i, d in diag.rays]
    return out


def diagram_from_json(data) -> TropicalDiagram:
    with malformed("malformed diagram JSON", DiagramError):
        data = read_object(data, 'with "dim" and "vertices"')
        dim = read_int(data["dim"])
        vertices = tuple(as_point(v, None, "vertex", DiagramError) for v in read_list(data["vertices"], "vertices"))
        edges = read_list(data.get("edges", []), '[i, j] pairs in "edges"')
        edges = tuple(as_point(e, 2, "edge", DiagramError, read_int) for e in edges)
        rays = tuple(_ray_from_json(r) for r in read_list(data.get("rays", []), "rays"))
    return TropicalDiagram(dim, vertices, edges, rays)


def _ray_from_json(value) -> tuple[int, tuple]:
    ray = read_object(value, 'with "at" and "dir" in "rays"')
    return read_int(ray["at"]), as_point(ray["dir"], None, "ray direction", DiagramError, read_int)


# The face walk, the gluing and the heights live in tropmirror.dual, which
# imports this module: this import comes last, so that every name dual needs
# from here is defined when it runs.  It binds the public names where callers
# look them up, and the two that the cached properties above call.
from .dual import (  # noqa: E402
    DualSubdivision,
    FaceComplex,
    _glue,
    dual_subdivision,
    face_heights,
    faces,
    gauge_points,
    is_smooth,
    locate_face,
)
