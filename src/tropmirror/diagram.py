"""Toric diagrams as tropical curves: the record, validation, and JSON.

A diagram lives in dimension 1 or 2.  In dimension 2 it is a planar graph with
rational vertices, straight bounded edges and rays with primitive integer
directions; in dimension 1 it is a finite set of marked points on a line.
Validation checks the semi-toric axioms: trivalence, balancing (the primitive
outgoing directions at each vertex sum to zero), primitivity of ray
directions, and connectivity.

The faces of the complement, the dual subdivision, the face heights and point
location are in ``tropmirror.dual``; their public names are bound here too.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .lattice import (
    QPoint,
    Vec,
    coords_from_json,
    exact_key,
    is_primitive,
    malformed,
    primitive,
    primitive_direction,
    read_int,
    vadd,
    vneg,
)
from .record import frozen

Q = Fraction


class DiagramError(ValueError):
    pass


@functools.total_ordering
@frozen
class EdgeRef:
    """Reference to a diagram edge: bounded edge, ray, or (d=1) marked point.

    Ordered by (kind, index).
    """

    kind: str  # "edge" | "ray" | "point"
    index: int

    def __lt__(self, other):
        if other.__class__ is not EdgeRef:
            return NotImplemented
        return (self.kind, self.index) < (other.kind, other.index)

    def __str__(self):
        return f"{self.kind}{self.index}"


def parse_edge_ref(text: str) -> EdgeRef:
    for kind in ("edge", "ray", "point"):
        if text.startswith(kind):
            return EdgeRef(kind, int(text[len(kind):]))
    raise DiagramError(f"cannot parse edge reference {text!r}")


@frozen
class TropicalDiagram:
    dim: int
    vertices: tuple[QPoint, ...]
    edges: tuple[tuple[int, int], ...] = ()
    rays: tuple[tuple[int, Vec], ...] = ()

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise DiagramError("dimension must be 1 or 2")
        verts = tuple(tuple(c if c.__class__ is Q else Q(c) for c in v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        for v in verts:
            if len(v) != self.dim:
                raise DiagramError("vertex dimension mismatch")
        if len(set(map(exact_key, verts))) != len(verts):
            raise DiagramError("two vertices coincide")
        edges = tuple((int(i), int(j)) for i, j in self.edges)
        object.__setattr__(self, "edges", edges)
        rays = tuple((int(i), tuple(int(c) for c in d)) for i, d in self.rays)
        object.__setattr__(self, "rays", rays)
        if self.dim == 1 and (edges or rays):
            raise DiagramError("d=1 diagrams carry no edges or rays")
        n = len(verts)
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise DiagramError("edge endpoint out of range")
            if i == j:
                raise DiagramError("edge endpoints must be distinct")
        for i, d in rays:
            if not 0 <= i < n:
                raise DiagramError("ray vertex out of range")
            if len(d) != self.dim:
                raise DiagramError("ray direction dimension mismatch")
            if all(c == 0 for c in d):
                raise DiagramError("ray direction is zero")

    def edge_refs(self) -> list[EdgeRef]:
        if self.dim == 1:
            return [EdgeRef("point", i) for i in range(len(self.vertices))]
        return [EdgeRef("edge", k) for k in range(len(self.edges))] + [
            EdgeRef("ray", r) for r in range(len(self.rays))
        ]

    # Derived geometry: computed on first use and stored on this instance, so
    # every layer shares one copy.  The diagram is frozen, so the facts never
    # go stale; record.replace gives a fresh object with nothing cached.

    @functools.cached_property
    def report(self) -> ValidationReport:
        return validate(self)

    @functools.cached_property
    def directions(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        """Primitive directions of the bounded edges (stored order) and of the rays."""
        edges = tuple(primitive_direction(self.vertices[i], self.vertices[j]) for i, j in self.edges)
        rays = tuple(primitive(d) for _, d in self.rays)
        return edges, rays

    @functools.cached_property
    def stars(self) -> tuple[tuple[tuple[EdgeRef, Vec], ...], ...]:
        """Per vertex, its outgoing (edge reference, direction) pairs: edges, then rays."""
        stars: list[list[tuple[EdgeRef, Vec]]] = [[] for _ in self.vertices]
        for k, (i, j) in enumerate(self.edges):
            ref = EdgeRef("edge", k)
            d = edge_direction(self, ref)
            stars[i].append((ref, d))
            stars[j].append((ref, vneg(d)))
        for r, (i, d) in enumerate(self.rays):
            stars[i].append((EdgeRef("ray", r), d))
        return tuple(tuple(s) for s in stars)

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


def edge_direction(diag: TropicalDiagram, ref: EdgeRef) -> Vec:
    """Canonical primitive direction: stored order for edges, outgoing for rays."""
    if ref.kind == "edge":
        return diag.directions[0][ref.index]
    if ref.kind == "ray":
        return diag.directions[1][ref.index]
    raise DiagramError(f"{ref} has no direction")


def edge_anchor(diag: TropicalDiagram, ref: EdgeRef) -> QPoint:
    if ref.kind == "edge":
        return diag.vertices[diag.edges[ref.index][0]]
    if ref.kind == "ray":
        return diag.vertices[diag.rays[ref.index][0]]
    return diag.vertices[ref.index]


# --- validation -------------------------------------------------------------


@frozen
class ValidationReport:
    trivalent: bool
    balanced: bool
    primitive_directions: bool
    connected: bool
    offenders: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return self.trivalent and self.balanced and self.primitive_directions and self.connected

    def failed_axioms(self) -> list[str]:
        return [
            name
            for name, good in [
                ("trivalent", self.trivalent),
                ("balanced", self.balanced),
                ("primitive_directions", self.primitive_directions),
                ("connected", self.connected),
            ]
            if not good
        ]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "trivalent": self.trivalent,
            "balanced": self.balanced,
            "primitive_directions": self.primitive_directions,
            "connected": self.connected,
            "offenders": [list(o) for o in self.offenders],
        }


EMPTY_DIAGRAM = "empty diagram has no vertices"


def validate(diag: TropicalDiagram) -> ValidationReport:
    """Check the semi-toric axioms; failures are reported, not raised."""
    if not diag.vertices:
        # a web or line with no vertex has one face, so nothing downstream can run
        return ValidationReport(True, True, True, False, (("connected", EMPTY_DIAGRAM),))
    if diag.dim == 1:
        return ValidationReport(True, True, True, True)
    trivalent = True
    balanced = True
    primitive_dirs = True
    offenders: list[tuple[str, str]] = []
    for v, star in enumerate(diag.stars):
        if len(star) != 3:
            trivalent = False
            offenders.append(("trivalent", f"vertex {v} has valence {len(star)}"))
        dirs = [d for _, d in star]
        total = dirs[0] if dirs else None
        for d in dirs[1:]:
            total = vadd(total, d)
        if dirs and any(c != 0 for c in total):
            balanced = False
            offenders.append(("balanced", f"vertex {v} direction sum {tuple(total)}"))
        seen = set()
        for ref, d in star:
            if tuple(d) in seen:
                # a repeated outgoing direction is a weight-2 edge in disguise
                primitive_dirs = False
                offenders.append(("primitive_directions", f"vertex {v} repeats direction {tuple(d)}"))
            seen.add(tuple(d))
    for r, (_, d) in enumerate(diag.rays):
        if not is_primitive(d):
            primitive_dirs = False
            offenders.append(("primitive_directions", f"ray {r} direction {tuple(d)} not primitive"))
    # connectivity over bounded edges
    n = len(diag.vertices)
    connected = True
    if n > 1:
        adj = {i: set() for i in range(n)}
        for i, j in diag.edges:
            adj[i].add(j)
            adj[j].add(i)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        connected = len(seen) == n
        if not connected:
            offenders.append(("connected", f"{n - len(seen)} vertices unreachable"))
    return ValidationReport(trivalent, balanced, primitive_dirs, connected, tuple(offenders))


# --- JSON --------------------------------------------------------------------


def diagram_to_json(diag: TropicalDiagram) -> dict:
    out: dict = {"dim": diag.dim, "vertices": [[str(c) for c in v] for v in diag.vertices]}
    if diag.dim == 2:
        out["edges"] = [[i, j] for i, j in diag.edges]
        out["rays"] = [{"at": i, "dir": list(d)} for i, d in diag.rays]
    return out


def diagram_from_json(data) -> TropicalDiagram:
    with malformed("diagram", DiagramError):
        dim = read_int(data["dim"])
        vertices = tuple(coords_from_json(v) for v in data["vertices"])
        edges = tuple((i, j) for i, j in (coords_from_json(e, read_int) for e in data.get("edges", [])))
        rays = tuple((read_int(r["at"]), coords_from_json(r["dir"], read_int)) for r in data.get("rays", []))
    return TropicalDiagram(dim, vertices, edges, rays)


# The face walk, the gluing and the heights live in tropmirror.dual, which
# imports this module: this import comes last, so that every name dual needs
# from here is defined when it runs.  It binds the public names where callers
# look them up, and the two that the cached properties above call.
from .dual import (  # noqa: E402
    DualSubdivision,
    Face,
    FaceComplex,
    _glue,
    dual_subdivision,
    face_heights,
    faces,
    gauge_points,
    is_smooth,
    locate_face,
)
