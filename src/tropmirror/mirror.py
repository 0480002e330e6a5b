"""Hori-Vafa superpotential, which presents the mirror algebra.

The superpotential is g = sum over dual vertices alpha of (1 + c_alpha)
t^{f(alpha)} u^alpha.  The exponents f are the lifting heights of the dual
vertices relative to a base point: f vanishes on the distinguished face and
grows by the pairing of the dual-edge difference with any point of the
crossed diagram edge.  Correction series c_alpha are user input with positive
valuation (their integer coefficients are invariants this package never
computes); with no corrections every coefficient of the normalized g is a
plain power of t.

The mirror algebra is Lambda[u_1^{+-1}, ..., u_{n-1}^{+-1}, x, y] / (x y - g)
with winding gradings |u_i| = 0, |x| = 1, |y| = -1; g determines it, so the
``Superpotential`` record is the presentation, and ``relation_text`` and
``presentation_to_json`` write it.  The distinguished vertex is the lattice
origin in every gauge.  Normalization makes the presentation canonical: f
becomes the heights seen from the web vertex whose dual cell is the chosen
cell at the root.  The faces of that cell tie there, so the normal form
is 0 on the cell and positive elsewhere; the change is affine-linear in the
exponent, absorbed into rescalings of the u_i and an overall power of t, which
also makes the result independent of the base point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .diagram import DiagramError, TropicalDiagram
from .dual import DualSubdivision, dual_subdivision, face_heights
from .lattice import (
    QPoint,
    Vec,
    as_int,
    as_point,
    as_rational,
    dot,
    malformed,
    printed,
    read_int,
    read_list,
    read_object,
    shown_point,
)
from .novikov import (
    NOV_ONE,
    NovikovElement,
    nov,
    nov_add,
    nov_from_json,
    nov_shift,
    nov_to_json,
    nov_to_text,
    nov_truncate,
    nov_val,
)
from .record import frozen

Q = Fraction

DEFAULT_TRUNCATION = Q(10)


class MirrorError(ValueError):
    pass


@frozen
class CorrectionMap:
    """User-supplied correction series per dual vertex, val > 0 each."""

    terms: tuple[tuple[Vec, NovikovElement], ...]

    def __post_init__(self):
        for alpha, c in self.terms:
            v = nov_val(c)
            if v is not None and v <= 0:
                raise MirrorError("corrections must have positive valuation")
        terms = tuple((as_point(al, None, "correction vertex", MirrorError, read_int), c) for al, c in self.terms)
        object.__setattr__(self, "terms", terms)
        seen: set[Vec] = set()
        for alpha, _ in terms:
            if alpha in seen:
                raise MirrorError(f"repeated correction vertex {shown_point(alpha)}")
            seen.add(alpha)


def corrections_from_json(data) -> CorrectionMap:
    with malformed("malformed corrections JSON", MirrorError):
        terms = tuple(
            _correction_from_json(i, item) for i, item in enumerate(read_list(data, '{"vertex", "series"} objects'))
        )
    return CorrectionMap(terms)


def _correction_from_json(i: int, item) -> tuple[Vec, NovikovElement]:
    """Entry i, {"vertex": [a, b], "series": [{"exp": e, "coeff": c}, ...]}."""
    with malformed(f"entry {i}"):
        item = read_object(item, 'with "vertex" and "series"')
        vertex = as_point(item["vertex"], None, "correction vertex", MirrorError, read_int)
        series = read_list(item["series"], '{"exp", "coeff"} objects in "series"')
        return vertex, nov_from_json([read_object(t, 'with "exp" and "coeff" in "series"') for t in series])


def _term_sort_key(alpha: Vec):
    return (sum(alpha), tuple(reversed(alpha)))


@frozen
class Superpotential:
    dim: int  # diagram dimension d; the mirror has n = d + 1
    terms: tuple[tuple[Vec, NovikovElement], ...]  # (dual vertex, coefficient); the root is 0
    truncation: Fraction
    # what normalization subtracts per unit of alpha: sign * (b - x_v)
    # for base point b and the root cell's web vertex x_v (not in the JSON)
    slope: tuple[Fraction, ...]


def superpotential(
    diag: TropicalDiagram,
    base: Optional[Sequence] = None,
    corrections: Optional[CorrectionMap] = None,
    truncation=DEFAULT_TRUNCATION,
    root_face: Optional[int] = None,
    sign: int = 1,
) -> Superpotential:
    """g = sum (1 + c_alpha) t^{f(alpha)} u^alpha over the dual vertices.

    f is normalized so its minimum over the support is 0.  Correction series
    are truncated at the energy level on input; the leading part of g is
    polynomial, so any truncation works.
    """
    truncation = as_rational(truncation, "truncation", MirrorError)
    if truncation <= 0:
        raise MirrorError("truncation must be positive")
    # read here too, as the slope below is scaled by it; gauge_points refuses one not +1 or -1
    sign = as_int(sign, "sign gauge", DiagramError)
    dual = dual_subdivision(diag, root_face=root_face, sign=sign)
    # the gauge moves only the dual points; pinning the root face adds a
    # constant to the heights, which cancels in h - min h
    heights = face_heights(diag, base)
    fmin = min(heights.values())
    by_vertex = dict(corrections.terms) if corrections else {}
    known = set(dual.lattice_points)
    for a in by_vertex:
        if a not in known:
            raise MirrorError(f"correction vertex {shown_point(a)} is not in the dual graph")
    terms = []
    for f, alpha in enumerate(dual.lattice_points):
        c = nov_truncate(by_vertex.get(alpha, nov()), truncation)
        coeff = nov_shift(heights[f] - fmin, nov_add(NOV_ONE, c))
        terms.append((alpha, coeff))
    terms.sort(key=lambda item: _term_sort_key(item[0]))
    # face_heights has refused a base of the wrong dimension with this text already
    base = (Q(0),) * diag.dim if base is None else as_point(base, diag.dim, "base point", DiagramError)
    slope = tuple(sign * (b - x) for b, x in zip(base, _root_cell_vertex(diag, dual)))
    return Superpotential(diag.dim, tuple(terms), truncation, slope)


def _root_cell_vertex(diag: TropicalDiagram, dual: DualSubdivision) -> QPoint:
    """The web vertex dual to the lex-least cell at the root, its points in term order.

    The cells are the dual triangles in dimension 2 and, in dimension 1, the
    face pair on either side of each marked point.
    """
    if diag.dim == 1:
        cells = dual.edge_duality  # marked point v is edge row v
    else:
        cells = list(enumerate(dual.triangles))
    points = dual.lattice_points
    _, v = min(
        (sorted((points[f] for f in cell), key=_term_sort_key), v) for v, cell in cells if dual.root_face in cell
    )
    return diag.vertices[v]


def _variables(dim: int) -> tuple[str, ...]:
    return ("u",) if dim == 1 else tuple(f"u{i + 1}" for i in range(dim))


# --- normalization -----------------------------------------------------------


def normalize_presentation(g: Superpotential) -> Superpotential:
    """Canonical form: the heights seen from the root cell's vertex.

    Subtracting the root's t-exponent and the pairing of alpha with the
    slope rescales the overall power of t and the u_i.  The result is
    idempotent and independent of the base point used to build g.
    """
    zero = (0,) * g.dim
    vals = [nov_val(c) for _, c in g.terms]
    if None in vals:
        raise MirrorError("superpotential coefficient vanished")
    v0 = vals[[alpha for alpha, _ in g.terms].index(zero)]
    new_terms = []
    for (alpha, c), v in zip(g.terms, vals):
        delta = v0 + dot(alpha, g.slope)
        if v < delta:
            raise MirrorError("normalization produced a negative valuation")
        new_terms.append((alpha, nov_shift(-delta, c)))
    return Superpotential(g.dim, tuple(new_terms), g.truncation, zero)


# --- rendering ---------------------------------------------------------------


def _coeff_text(c: NovikovElement) -> Optional[str]:
    if len(c.terms) == 1:
        e, q = c.terms[0]
        if e == 0 and q == 1:
            return None
        if e == 0:
            return str(q)
        if q == 1:
            return f"t^{{{e}}}"
        return f"{q}*t^{{{e}}}"
    return "(" + nov_to_text(c) + ")"


def _monomial_text(alpha: Vec, variables: tuple[str, ...]) -> Optional[str]:
    parts = []
    for name, e in zip(variables, alpha):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else None


def superpotential_text(g: Superpotential) -> str:
    variables = _variables(g.dim)
    chunks = []
    for alpha, c in g.terms:
        cpart = _coeff_text(c)
        mpart = _monomial_text(alpha, variables)
        if cpart is None and mpart is None:
            chunks.append("1")
        elif cpart is None:
            chunks.append(mpart)
        elif mpart is None:
            chunks.append(cpart)
        else:
            chunks.append(f"{cpart}*{mpart}")
    return " + ".join(chunks)


def relation_text(g: Superpotential) -> str:
    return f"x*y - ({superpotential_text(g)})"


def presentation_to_json(g: Superpotential) -> dict:
    """The generators u_i^{+-1}, x, y, their winding gradings and the relation x*y - g.

    A term with a number too long to print is refused by its dual vertex.
    """
    variables = _variables(g.dim)
    gens = []
    for v in variables:
        gens.extend([v, f"{v}^-1"])
    holder = "the superpotential term at dual vertex {} has a number"
    terms = [
        {"vertex": list(alpha), "coefficient": printed(lambda: nov_to_json(c), holder, alpha, error=MirrorError)}
        for alpha, c in g.terms
    ]
    return {
        "n": g.dim + 1,
        "generators": gens + ["x", "y"],
        "gradings": {**{v: 0 for v in variables}, "x": 1, "y": -1},
        "relation": relation_text(g),
        "superpotential": terms,
        "truncation": str(g.truncation),
        "root": [0] * g.dim,
    }
