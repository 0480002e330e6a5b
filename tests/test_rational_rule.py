"""Every rational a caller passes in is read by one rule, ``lattice.read_rational``.

A string is read as ``Fraction`` reads it, with at most 4,300 digits above
and below the bar; an ``int``, a ``Fraction`` or a ``float`` is read exactly;
a bool is refused, never read as 1.  Each entry point below reads its
rationals through ``lattice.as_point`` or ``lattice.as_rational`` and refuses
with its own module's error class, naming the field and the value.  An
accepted spelling of 1/2 must give a result whose ``repr`` is the one the
plain ``Fraction(1, 2)`` gives, so no float or string is stored.
"""

import re
import reprlib
from fractions import Fraction as Q

import pytest

from tropmirror.affine import AffineError, build_cut_presentation, chamber_of, transport_crossings
from tropmirror.analytic import (
    AnalyticError,
    AnalyticSeries,
    Monomial,
    WallTransformation,
    eval_series,
    focus_focus_demo,
    series,
    series_eq_mod,
    wall_cross,
)
from tropmirror.charges import ChargeError, regular_subdivision
from tropmirror.diagram import DiagramError, TropicalDiagram, face_heights, locate_face
from tropmirror.lattice import DIGITS, Box, LatticeError
from tropmirror.mirror import MirrorError, superpotential
from tropmirror.novikov import (
    NOV_ONE,
    NovikovElement,
    NovikovError,
    nov,
    nov_inv,
    nov_shift,
    nov_truncate,
)

C3 = TropicalDiagram(2, ((0, 0),), (), ((0, (1, 0)), (0, (0, 1)), (0, (-1, -1))))
FOCUS_FOCUS = build_cut_presentation(TropicalDiagram(1, ((0,),)))
BOX = Box(((Q(1, 4), 2), (Q(-2), Q(-1, 4))))
TARGET = Box(((Q(1, 4), 2), (Q(1, 4), 2)))
# z1^{-1} pairs to 1 with the normal, so crossing never expands a cone family
SERIES = series([Monomial(NOV_ONE, (0, -1))], "V_minus", BOX, 3)
CROSS = WallTransformation(0, (1, 0), (0, -1), "corrected")

# (entry point, call with the rational, error class, field named)
CASES = [
    ("chamber_of", lambda v: chamber_of(FOCUS_FOCUS, (v, 5)), AffineError, "point"),
    ("transport_crossings", lambda v: transport_crossings(FOCUS_FOCUS, ((v, 1), (-1, 1))), AffineError, "path point"),
    ("build_cut_presentation tau", lambda v: build_cut_presentation(C3, {"ray0": v}), AffineError, "tau"),
    ("locate_face", lambda v: locate_face(C3, (v, 1)), DiagramError, "point"),
    ("face_heights", lambda v: face_heights(C3, (v, 1)), DiagramError, "base point"),
    # superpotential hands its base point to face_heights first
    ("superpotential base", lambda v: superpotential(C3, base=(v, 1)), DiagramError, "base point"),
    ("superpotential truncation", lambda v: superpotential(C3, truncation=v), MirrorError, "truncation"),
    ("TropicalDiagram vertices", lambda v: TropicalDiagram(1, ((v,),)), DiagramError, "vertex"),
    ("regular_subdivision heights", lambda v: regular_subdivision([(0, 0), (1, 0), (0, 1)], [v, 0, 0]),
     ChargeError, "height"),
    ("Box", lambda v: Box(((v, 1),)), LatticeError, "box interval"),
    ("NovikovElement exponent", lambda v: NovikovElement(((v, 1),)), NovikovError, "term"),
    ("NovikovElement coefficient", lambda v: NovikovElement(((0, v),)), NovikovError, "term"),
    ("NovikovElement truncation", lambda v: NovikovElement((), v), NovikovError, "truncation"),
    ("nov exponent", lambda v: nov([(v, 1)]), NovikovError, "term"),
    ("nov coefficient", lambda v: nov([(0, v)]), NovikovError, "term"),
    ("nov truncation", lambda v: nov((), v), NovikovError, "truncation"),
    ("nov_truncate", lambda v: nov_truncate(NOV_ONE, v), NovikovError, "truncation"),
    ("nov_shift", lambda v: nov_shift(v, NOV_ONE), NovikovError, "shift"),
    ("nov_inv", lambda v: nov_inv(NOV_ONE, v), NovikovError, "truncation"),
    ("AnalyticSeries truncation", lambda v: AnalyticSeries((), "V_minus", BOX, v), AnalyticError, "truncation"),
    ("eval_series", lambda v: eval_series(SERIES, (v, 1)), AnalyticError, "evaluation point"),
    ("series_eq_mod", lambda v: series_eq_mod(SERIES, SERIES, v), AnalyticError, "truncation"),
    ("wall_cross", lambda v: wall_cross(SERIES, CROSS, v, TARGET), AnalyticError, "truncation"),
    ("focus_focus_demo", lambda v: focus_focus_demo(v), AnalyticError, "truncation"),
]

LONG = "1" + "0" * DIGITS  # DIGITS + 1 digits
REFUSALS = [
    (True, "expected a rational number, got True"),
    ("1e9000", f"'1e9000' is over the limit of {DIGITS} digits"),
    (LONG, f"{reprlib.repr(LONG)} is over the limit of {DIGITS} digits"),
]
ENTRY_POINTS = pytest.mark.parametrize(
    "call, error, field", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)


@ENTRY_POINTS
@pytest.mark.parametrize("value, reason", REFUSALS, ids=["True", "1e9000", f"{DIGITS + 1} digits"])
def test_every_entry_point_refuses_by_one_rule(call, error, field, value, reason):
    with pytest.raises(error, match=f"^{re.escape(f'{field}: {reason}')}$") as info:
        call(value)
    assert type(info.value) is error


@ENTRY_POINTS
def test_every_entry_point_reads_one_half_as_the_fraction(call, error, field):
    want = repr(call(Q(1, 2)))
    for value in ("1/2", 0.5):
        assert repr(call(value)) == want


def test_a_box_interval_that_is_not_a_pair_is_refused_by_name():
    with pytest.raises(LatticeError, match=r"^box interval dimension mismatch: \(0, 1, 2\)$"):
        Box(((0, 1, 2),))
    with pytest.raises(LatticeError, match=r"^box interval: expected a list or a tuple, got 5$"):
        Box((5,))


def test_a_novikov_term_that_is_not_a_pair_is_refused_by_name():
    with pytest.raises(NovikovError, match=r"^term dimension mismatch: \(0, 1, 2\)$"):
        nov([(0, 1, 2)])
    with pytest.raises(NovikovError, match=r"^term dimension mismatch: \(0,\)$"):
        NovikovElement(((0,),))


def test_a_number_is_read_exactly_and_without_the_digit_bound():
    # the records also hold values the package computed, which may be larger than any text it reads
    big = Q(10**DIGITS + 1, 3)
    assert nov([(0, big)]).terms == ((0, big),)
    assert TropicalDiagram(1, ((10**DIGITS,),)).vertices == ((Q(10**DIGITS),),)
    assert nov([(0.1, 1)]).terms[0][0] == Q(3602879701896397, 36028797018963968)
