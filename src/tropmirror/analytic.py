"""Monomial calculus over chambers and wall-crossing substitutions.

A monomial c z^u is a Novikov coefficient together with an integer exponent
vector; its valuation over a box is val(c) plus the minimum of <u, x> over
the box, which is the sum over the axes of min(u_i lo_i, u_i hi_i).  Series
are finite term lists tagged with a chamber and a valuation box, whose
length is the series' dimension.  The one infinite expansion, a negative
power (1 + z^gamma)^{-m} z^{apex}, is a cone family (apex, vanishing class
gamma, power m, coefficient) that is materialized up to the energy level
before any arithmetic, as (exponent, integer) pairs: c_0 = 1 and
c_{k+1} = -c_k (m+k)/(k+1) on z^{apex + k*gamma}.

Every series is summed in one pass by ``_collect``: it reads items
(exponent, integer k, coefficient) once and adds k times each coefficient
term into one dict per exponent.  A sum carries the least truncation among
its summands and is dropped when it is zero.  ``series``, ``series_mul``,
``wall_cross`` and ``series_eq_mod`` (which collects a - b) all go through
it.

Wall crossing acts per monomial by the cluster substitution
z^u -> z^u (1 + z^gamma)^{<u,m>}, a ring homomorphism modulo the truncation.
Negative powers expand geometrically and are truncated against the chamber
box.  The monodromy shear of a cut is ``affine.transport_covector``'s.

The focus-focus demo runs the whole pipeline in dimension 1: transporting the
negative generator into the upper chamber through both windows (one route is a
pure cluster factor, the other first crosses the marked point's cut inside the
lower chamber, transporting each exponent through the cut presentation, and
so picks up the monodromy shear), checking the two routes agree, multiplying
with the positive generator, and comparing with the mirror relation 1 + u.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .affine import build_cut_presentation, transport_covector
from .diagram import TropicalDiagram
from .lattice import (
    Box,
    Vec,
    as_int,
    as_point,
    as_rational,
    dot,
    is_primitive,
    malformed,
    read_int,
    read_list,
    read_object,
    shown,
    shown_point,
    vadd,
)
from .mirror import normalize_presentation, superpotential, superpotential_text
from .novikov import (
    NOV_ONE,
    NovikovElement,
    _from_sums,
    _min_trunc,
    _sum_terms,
    nov_from_json,
    nov_mul,
    nov_to_json,
    nov_val,
)
from .record import frozen

Q = Fraction


class AnalyticError(ValueError):
    pass


@frozen
class Monomial:
    coeff: NovikovElement
    expo: Vec

    def __post_init__(self):
        object.__setattr__(self, "expo", as_point(self.expo, None, "exponent", AnalyticError, read_int))
        if self.coeff.is_zero():
            raise AnalyticError("monomial coefficient must be nonzero")


def expo_val_on_box(expo: Vec, box: Box) -> Fraction:
    return sum(min(u * lo, u * hi) for u, (lo, hi) in zip(expo, box.intervals, strict=True))


@frozen
class ConeFamily:
    """The expansion (1 + z^gamma)^{-m} z^{apex} times coeff, m = power > 0.

    Its coefficients sit on z^{apex + k*gamma}, k >= 0; they are
    materialized while the box valuation stays below the truncation, which
    ends only if z^gamma has positive valuation over the whole box.
    """

    apex: Vec
    gamma: Vec
    power: int
    coeff: NovikovElement

    def __post_init__(self):
        for name in ("apex", "gamma"):
            object.__setattr__(self, name, as_point(getattr(self, name), None, name, AnalyticError, read_int))
        object.__setattr__(self, "power", as_int(self.power, "power", AnalyticError))

    def materialize(self, truncation: Fraction, box: Box) -> list[tuple[Vec, int]]:
        """The (exponent, integer coefficient) pairs below the truncation; multiply by coeff."""
        if self.coeff.is_zero():
            raise AnalyticError("cone family coefficient must be nonzero")
        step = expo_val_on_box(self.gamma, box)
        if step <= 0:
            raise AnalyticError("cone family has no val-positive increments on the chamber")
        level = nov_val(self.coeff) + expo_val_on_box(self.apex, box)
        out = []
        expo, c, k, m = self.apex, 1, 0, self.power
        while level < truncation:
            out.append((expo, c))
            expo = vadd(expo, self.gamma)
            c = -c * (m + k) // (k + 1)
            k += 1
            level += step
        return out


@frozen
class AnalyticSeries:
    terms: tuple[Monomial, ...]
    chamber: str
    box: Box
    truncation: Fraction

    @property
    def dim(self) -> int:
        return self.box.dim

    def __post_init__(self):
        expos = [m.expo for m in self.terms]
        for e in expos:
            _check_length("exponent {}", e, self.dim)
        if len(set(expos)) != len(expos):
            raise AnalyticError("explicit terms must have distinct exponents")
        object.__setattr__(self, "truncation", as_rational(self.truncation, "truncation", AnalyticError))


def _check_length(what: str, v: Sequence, dim: int):
    """Refuse ``v`` unless it has the series' dimension ``dim``; ``what`` names it, ``{}`` standing for ``shown(v)``."""
    if len(v) != dim:
        raise AnalyticError(f"{what.format(shown(v))} has length {len(v)}, the series has dimension {dim}")


def _collect(items) -> tuple[Monomial, ...]:
    """Sum k * coeff per exponent over ``(exponent, k, coeff)`` items, read once.

    Each sum carries the least truncation among its summands; zero sums are
    dropped.  The terms come back sorted by exponent.
    """
    sums: dict[Vec, dict] = {}
    truncs: dict[Vec, Optional[Fraction]] = {}
    for e, k, coeff in items:
        acc = sums.setdefault(e, {})
        for x, c in coeff.terms:
            acc[x] = acc[x] + k * c if x in acc else k * c
        truncs[e] = _min_trunc(truncs.get(e), coeff.truncation)
    kept = ((e, _from_sums(sums[e], truncs[e])) for e in sorted(sums))
    return tuple(Monomial(c, e) for e, c in kept if c)


def series(terms, chamber: str, box: Box, truncation) -> AnalyticSeries:
    """Build a series from monomials; its dimension is the box's.

    Duplicate exponents are merged and zero sums dropped, in one pass.
    """
    return AnalyticSeries(_collect((m.expo, 1, m.coeff) for m in terms), chamber, box, truncation)


def series_mul(a: AnalyticSeries, b: AnalyticSeries) -> AnalyticSeries:
    if a.chamber != b.chamber:
        raise AnalyticError("cannot multiply series on different chambers")
    kept = _collect(
        (vadd(ma.expo, mb.expo), 1, nov_mul(ma.coeff, mb.coeff)) for ma in a.terms for mb in b.terms
    )
    return AnalyticSeries(kept, a.chamber, a.box, min(a.truncation, b.truncation))


def series_eq_mod(a: AnalyticSeries, b: AnalyticSeries, E) -> bool:
    """Equality of series modulo t^E in the box valuation of a's chamber."""
    E = as_rational(E, "truncation", AnalyticError)
    diff = _collect((m.expo, k, m.coeff) for s, k in ((a, 1), (b, -1)) for m in s.terms)
    return all(nov_val(m.coeff) + expo_val_on_box(m.expo, a.box) >= E for m in diff)


def eval_series(a: AnalyticSeries, point: Sequence) -> NovikovElement:
    """Evaluate at a base point: each z^u contributes t^{<u, x>}.

    The shifted terms are the kernel's own Fractions, so they are summed
    without being read again term by term.
    """
    x = as_point(point, a.dim, "evaluation point", AnalyticError)
    shifted = [(dot(m.expo, x), m.coeff) for m in a.terms]
    trunc = min([a.truncation] + [c.truncation + s for s, c in shifted if c.truncation is not None])
    return _sum_terms([(e + s, v) for s, c in shifted for e, v in c.terms], trunc)


@frozen
class WallTransformation:
    wall: int  # face index of the window being crossed
    gamma: Vec  # vanishing class
    normal: Vec  # pairing covector m
    mode: str  # "corrected", the cluster substitution; the only mode

    def __post_init__(self):
        for name in ("gamma", "normal"):
            object.__setattr__(self, name, as_point(getattr(self, name), None, name, AnalyticError, read_int))
        if not is_primitive(self.gamma):
            raise AnalyticError(f"vanishing class {shown_point(self.gamma)} is not primitive")
        if self.mode != "corrected":
            raise AnalyticError(f"unknown wall-crossing mode {shown(self.mode)}")


def _flip(chamber: str) -> str:
    if chamber == "V_plus":
        return "V_minus"
    if chamber == "V_minus":
        return "V_plus"
    raise AnalyticError("wall not adjacent to series chamber")


def wall_cross(a: AnalyticSeries, w: WallTransformation, E, target_box: Box) -> AnalyticSeries:
    """Apply the wall-crossing substitution monomial by monomial.

    z^u -> z^u (1 + z^gamma)^{<u,m>}, expanded.  Non-negative powers expand
    exactly (truncation immaterial); negative powers are cone families
    materialized up to t^E against the target chamber's box, so the result is
    a ring homomorphism modulo t^E.  The result is tagged with the target
    chamber and carries its box.
    """
    for name, v in (("gamma", w.gamma), ("normal", w.normal), ("box", target_box.intervals)):
        _check_length(name, v, a.dim)
    E = as_rational(E, "truncation", AnalyticError)
    target = _flip(a.chamber)

    def crossed():
        # one monomial's image at a time, so _collect never holds them all
        for m in a.terms:
            k = dot(m.expo, w.normal)
            if k >= 0:
                for i in range(k + 1):
                    yield vadd(m.expo, tuple(i * g for g in w.gamma)), math.comb(k, i), m.coeff
            else:
                for e, c in ConeFamily(m.expo, w.gamma, -k, m.coeff).materialize(E, target_box):
                    yield e, c, m.coeff

    return AnalyticSeries(_collect(crossed()), target, target_box, E)


# --- the worked focus-focus pipeline -----------------------------------------


@frozen
class FocusFocusReport:
    truncation: Fraction
    passed: bool
    h_plus_x: AnalyticSeries
    h_minus_y: AnalyticSeries
    h_plus_y_left: AnalyticSeries
    h_plus_y_right: AnalyticSeries
    product: AnalyticSeries
    mirror_relation: str
    messages: tuple[str, ...]


def focus_focus_demo(E) -> FocusFocusReport:
    """Mechanized single-critical-point pipeline in dimension 1.

    Exponents live in Z^2 = (fiber class, winding class).  x evaluates to
    z1 = z^{(0,1)} on V_plus and y to z1^{-1} on V_minus.  Transporting y up
    through the left window multiplies by (1 + z2); the right route first
    crosses the cut inside V_minus, transporting each exponent along a path
    under the marked point (monodromy shear), and then corrects in the
    inverted fiber class.  Both give z1^{-1}(1 + z2), the product with x is
    1 + z2, and identifying z2 with u reproduces the mirror relation.
    """
    E = as_rational(E, "truncation", AnalyticError)
    messages: list[str] = []
    diag = TropicalDiagram(1, ((0,),))
    # superpotential refuses a truncation that is not positive
    g = normalize_presentation(superpotential(diag, truncation=E))
    relation = superpotential_text(g)

    box_plus = Box(((Q(1, 4), Q(2)), (Q(1, 4), Q(2))))
    box_minus = Box(((Q(1, 4), Q(2)), (Q(-2), Q(-1, 4))))
    cross_left = WallTransformation(0, (1, 0), (0, -1), "corrected")
    cross_right = WallTransformation(1, (-1, 0), (0, -1), "corrected")

    h_plus_x = series([Monomial(NOV_ONE, (0, 1))], "V_plus", box_plus, E)
    h_minus_y = series([Monomial(NOV_ONE, (0, -1))], "V_minus", box_minus, E)

    via_left = wall_cross(h_minus_y, cross_left, E, target_box=box_plus)
    # right route: the cut crossing stays inside V_minus, then the window
    # crossing lands in V_plus
    cuts = build_cut_presentation(diag)
    shear_step = series(
        [Monomial(m.coeff, transport_covector(cuts, ((1, -1), (-1, -1)), m.expo)) for m in h_minus_y.terms],
        "V_minus",
        box_minus,
        E,
    )
    via_right = wall_cross(shear_step, cross_right, E, target_box=box_plus)

    routes_agree = via_left.terms == via_right.terms
    if routes_agree:
        messages.append("PASS: both window routes give the same h_+(y)")
    else:
        messages.append("FAIL: window routes disagree")

    product = series_mul(h_plus_x, via_left)

    expected_product = series(
        [Monomial(NOV_ONE, (0, 0)), Monomial(NOV_ONE, (1, 0))], "V_plus", box_plus, E
    )
    product_ok = series_eq_mod(product, expected_product, E)
    messages.append(
        "PASS: h_+(x) h_+(y) = 1 + z2" if product_ok else "FAIL: product is not 1 + z2"
    )

    # identify u with z2 = z^{gamma} and compare with the mirror relation
    g_series = series([Monomial(c, (alpha[0], 0)) for alpha, c in g.terms], "V_plus", box_plus, E)
    mirror_ok = series_eq_mod(product, g_series, E)
    messages.append(
        "PASS: product equals the mirror relation g = 1 + u"
        if mirror_ok
        else "FAIL: product differs from the mirror superpotential"
    )

    passed = routes_agree and product_ok and mirror_ok
    return FocusFocusReport(
        E,
        passed,
        h_plus_x,
        h_minus_y,
        via_left,
        via_right,
        product,
        relation,
        tuple(messages),
    )


# --- serialization -----------------------------------------------------------


def series_to_json(a: AnalyticSeries) -> dict:
    return {
        "dim": a.dim,
        "chamber": a.chamber,
        "truncation": str(a.truncation),
        "box": [[str(lo), str(hi)] for lo, hi in a.box.intervals],
        "terms": [{"expo": list(m.expo), "coeff": nov_to_json(m.coeff)} for m in a.terms],
    }


def series_from_json(data) -> AnalyticSeries:
    with malformed("malformed series JSON", AnalyticError):
        data = read_object(data, 'with "dim", "chamber", "box", "truncation" and "terms"')
        box = Box(read_list(data["box"], '[lo, hi] pairs in "box"'))
        terms = [_monomial_from_json(item) for item in read_list(data["terms"], "terms")]
        _check_length("box", box.intervals, read_int(data["dim"]))
        return series(terms, data["chamber"], box, data["truncation"])


def _monomial_from_json(value) -> Monomial:
    item = read_object(value, 'with "expo" and "coeff" in "terms"')
    return Monomial(nov_from_json(item["coeff"], "coeff"), item["expo"])
