"""Cut presentation of the complete integral affine base and parallel transport.

The base is R^(d+1): moment coordinates over the diagram plane plus one extra
coordinate.  Each diagram edge e at height tau(e) hangs a cut
P_e = {(x, t) : x on e, t <= tau(e)}; gluing across a cut adds the edge
covector, times the g_0 coefficient, to a covector's eta part.  A
presentation is the diagram and one height per edge, ``taus``, indexed by
edge row like its edge table (``segments`` and ``covectors``); a tau file
names the edges (``parse_edge_name``), and ``build_cut_presentation`` maps
the names to rows once.  The gluings commute, so transporting a covector
along a polyline adds the signed sum of the covectors it crosses; the
crossing sign is positive when the path moves with the edge covector
increasing.

Chambers: points with last coordinate above every relevant cut height are in
``"V_plus"``, below in ``"V_minus"``, and points at the wall level over a
face are in ``"wall(<face>)"``.  tau defaults to zero on every edge, putting
the diagram in the plane {t = 0}; users may supply per-edge constants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .diagram import TropicalDiagram, parse_edge_name, require_axioms
from .dual import locate_face
from .lattice import (
    QPoint,
    Vec,
    as_point,
    dot,
    malformed,
    read_int,
    read_list,
    read_object,
    read_rational,
    shown_point,
    vsub,
)
from .record import frozen

Q = Fraction


class AffineError(ValueError):
    pass


@frozen
class CutPresentation:
    diagram: TropicalDiagram
    taus: tuple[Fraction, ...]  # the cut height of each edge, by edge row

    @property
    def n(self) -> int:
        return self.diagram.dim + 1


def path_from_json(data) -> list[QPoint]:
    """The polyline of a path file: {"path": [[x, ..., t], ...]}."""
    with malformed("malformed path JSON", AffineError):
        path = read_object(data, 'with a "path" list of points')["path"]
        return [as_point(p, None, "path point", AffineError) for p in read_list(path, 'points in "path"')]


def tau_from_json(data) -> dict[str, Fraction]:
    """Per-edge cut heights from a tau file, {"edge0": "1/2", ...}, by edge name.

    Two spellings of one name (edge1, edge01) are one key: the later value wins.
    """
    with malformed("malformed tau JSON", AffineError):
        items = read_object(data, "of edge names to heights").items()
        return {parse_edge_name(k): read_rational(v) for k, v in items}


def build_cut_presentation(diag: TropicalDiagram, tau: Optional[dict] = None) -> CutPresentation:
    """One cut per edge, glued by its covector.

    tau maps edge names (``TropicalDiagram.edge_name``) to heights; an edge
    it does not name gets height 0.
    """
    require_axioms(diag)
    names = [diag.edge_name(e) for e in range(len(diag.segments))]
    tau = tau or {}
    for name in tau:
        if name not in names:
            raise AffineError(f"tau defined on a non-edge {name}")
    return CutPresentation(diag, as_point([tau.get(name, 0) for name in names], None, "tau", AffineError))


def chamber_of(pres: CutPresentation, p: Sequence) -> str:
    """Name the chamber of a base point: "V_plus" above the wall slab of its
    face, "V_minus" below, "wall(<face>)" inside it.  Points over the diagram
    itself error out.
    """
    p = as_point(p, pres.n, "point", AffineError)
    x, t = p[:-1], p[-1]
    diag = pres.diagram
    face = locate_face(diag, x)
    if face is None:
        raise AffineError(f"on wall: {shown_point(p)} lies over {_diagram_part_at(diag, x)}")
    # the cuts bounding the face are the edges dual to its sides
    taus = [pres.taus[e] for e, sides in diag.dual.edge_duality if face in sides]
    if t > max(taus):
        return "V_plus"
    if t < min(taus):
        return "V_minus"
    return f"wall({face})"


def _diagram_part_at(diag: TropicalDiagram, x) -> str:
    """Name the vertex, or else the edge, ray or marked point, that x lies on."""
    if diag.dim == 2:
        for i, v in enumerate(diag.vertices):
            if v == x:
                return f"vertex {i}"
    return next(diag.edge_name(e) for e, segment in enumerate(diag.segments) if _on_edge(segment, x))


@frozen
class Crossing:
    edge: int  # the row of the crossed edge
    sign: int
    point: QPoint  # crossing point in the base


def _edge_param(segment, x) -> Optional[Fraction]:
    """The s with x = anchor + s*d on the line of the edge, or None off it.

    A d=1 marked point is its own line: s is 0 on it.
    """
    anchor, d, _ = segment
    if d is None:
        return Q(0) if x[0] == anchor[0] else None
    rel = vsub(x, anchor)
    axis = 0 if d[0] != 0 else 1
    s = rel[axis] / d[axis]
    return s if all(ri == s * di for di, ri in zip(d, rel)) else None


def _on_edge(segment, pt) -> bool:
    """Is a planar point on the closed edge (segment, ray, or d=1 point)?"""
    s = _edge_param(segment, pt)
    end = segment[2]
    return s is not None and s >= 0 and (end is None or s <= end)


def _below(a: QPoint, b: QPoint, tau: Fraction) -> tuple[QPoint, QPoint]:
    """The ends of the part of segment ab at height tau or lower (not empty), a's first."""
    at, bt = a[-1], b[-1]
    if at > tau or bt > tau:
        s = (tau - at) / (bt - at)
        mid = tuple(pa + s * (pb - pa) for pa, pb in zip(a, b))
        a, b = (mid, b) if at > tau else (a, mid)
    return a, b


def _refuse(message: str, seg: int, edge: str, point: QPoint) -> AffineError:
    return AffineError(f"{message}: segment {seg} meets the cut of {edge} at {shown_point(point)}")


def _segment_crossings(pres: CutPresentation, seg: int, a: QPoint, b: QPoint) -> list[Crossing]:
    diag = pres.diagram
    axy, at = a[:-1], a[-1]
    bxy, bt = b[:-1], b[-1]
    found: list[tuple[Fraction, Crossing]] = []
    for e, (cov, tau, segment) in enumerate(zip(diag.covectors, pres.taus, diag.segments)):
        anchor, _, end = segment
        fa = dot(cov, vsub(axy, anchor))
        fb = dot(cov, vsub(bxy, anchor))
        if fa == fb:
            if fa == 0 and min(at, bt) <= tau:
                # segment inside the cut plane: reject if its part at or
                # below the cut height projects onto the edge range
                lo, hi = _below(a, b, tau)
                ua, ub = (_edge_param(segment, x[:-1]) for x in (lo, hi))
                if max(ua, ub) >= 0 and (end is None or min(ua, ub) <= end):
                    # witness: the first point of that part over the edge
                    u = max(ua, 0) if end is None else min(max(ua, 0), end)
                    s = (u - ua) / (ub - ua) if ub != ua else 0
                    point = tuple(pl + s * (ph - pl) for pl, ph in zip(lo, hi))
                    raise _refuse("path runs along a cut", seg, diag.edge_name(e), point)
            continue
        if fa == 0 or fb == 0:
            # the plane is met only at an endpoint; error iff that endpoint
            # is on the actual cut region, otherwise no crossing occurs
            p = a if fa == 0 else b
            if p[-1] <= tau and _on_edge(segment, p[:-1]):
                raise _refuse("path endpoint lies on a cut", seg, diag.edge_name(e), p)
            continue
        if (fa > 0) == (fb > 0):
            continue
        s = fa / (fa - fb)
        point = tuple(pa + s * (pb - pa) for pa, pb in zip(a, b))
        xq, tq = point[:-1], point[-1]
        u = _edge_param(segment, xq)
        if u < 0 or (end is not None and u > end):
            continue
        if tq > tau:
            continue  # passes above the cut, through glued regular base
        # at the cut's height, or in d=2 exactly over an edge endpoint (a
        # vertex line), the path meets the discriminant
        if tq == tau or (diag.dim == 2 and u in (0, end)):
            raise _refuse("path hits discriminant", seg, diag.edge_name(e), point)
        sign = 1 if fb > fa else -1
        found.append((s, Crossing(e, sign, point)))
    found.sort(key=lambda item: item[0])
    return [c for _, c in found]


def transport_covector(pres: CutPresentation, path: Sequence, g: Sequence[int]) -> Vec:
    """Parallel transport of an integer covector along a polyline.

    The covector is written in the basis (eta_1, ..., eta_{n-1}, g_0); the
    path adds g_0 times the signed sum of the covectors it crosses to eta.
    """
    crossings = transport_crossings(pres, path)
    v = as_point(g, pres.n, "covector", AffineError, read_int)
    covectors = pres.diagram.covectors
    total = [sum(c.sign * covectors[c.edge][i] for c in crossings) for i in range(pres.n - 1)]
    return tuple(e + v[-1] * c for e, c in zip(v, total)) + v[-1:]


def transport_crossings(pres: CutPresentation, path: Sequence) -> list[Crossing]:
    """The signed cut crossings along a polyline, in order."""
    if len(path) < 2:
        raise AffineError("path needs at least two points")
    pts = [as_point(p, pres.n, "path point", AffineError) for p in path]
    for p, q in zip(pts, pts[1:]):
        if p == q:
            raise AffineError("consecutive path points coincide")
    out = []
    for seg, (a, b) in enumerate(zip(pts, pts[1:])):
        out.extend(_segment_crossings(pres, seg, a, b))
    return out
