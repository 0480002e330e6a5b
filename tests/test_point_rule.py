"""Every point a caller passes in is read by one rule, ``lattice.as_point``.

A point is a list or a tuple.  A string is not read character by character,
a mapping by its keys, a set in its iteration order or a generator as it
runs, and a number is not a point: each is refused with the entry point's
own module's error class, naming the field and showing the value as
``reprlib`` abbreviates it.  A list and a tuple of the same entries give
equal results.
"""

import re
import reprlib
from fractions import Fraction as Q

import pytest

from tropmirror.affine import AffineError, build_cut_presentation, chamber_of, transport_covector, transport_crossings
from tropmirror.analytic import AnalyticError, ConeFamily, Monomial, WallTransformation, eval_series, series
from tropmirror.charges import ChargeError, ChargeMatrix, regular_subdivision
from tropmirror.diagram import DiagramError, TropicalDiagram, face_heights, locate_face
from tropmirror.lattice import Box, LatticeError
from tropmirror.mirror import CorrectionMap, MirrorError, superpotential
from tropmirror.novikov import NOV_ONE, NovikovElement, NovikovError, nov

C3 = TropicalDiagram(2, ((0, 0),), (), ((0, (1, 0)), (0, (0, 1)), (0, (-1, -1))))
FOCUS_FOCUS = build_cut_presentation(TropicalDiagram(1, ((0,),)))
LINE = ((0, 0), (1, 0), (2, 0))
BOX = Box(((Q(1, 4), 2), (Q(-2), Q(-1, 4))))
SERIES = series([Monomial(NOV_ONE, (0, -1))], "V_minus", BOX, 3)

# (entry point, call with the point, error class, field named, a point it reads)
CASES = [
    ("chamber_of", lambda p: chamber_of(FOCUS_FOCUS, p), AffineError, "point", (1, 2)),
    ("transport_crossings", lambda p: transport_crossings(FOCUS_FOCUS, (p, (-1, 1))), AffineError, "path point",
     (1, 2)),
    ("transport_covector", lambda p: transport_covector(FOCUS_FOCUS, ((1, -1), (-1, -1)), p), AffineError,
     "covector", (1, 2)),
    ("locate_face", lambda p: locate_face(C3, p), DiagramError, "point", (1, 2)),
    ("face_heights", lambda p: face_heights(C3, p), DiagramError, "base point", (1, 2)),
    ("superpotential base", lambda p: superpotential(C3, base=p), DiagramError, "base point", (1, 2)),
    ("TropicalDiagram vertices", lambda p: TropicalDiagram(2, (p,)), DiagramError, "vertex", (1, 2)),
    ("TropicalDiagram edges", lambda p: TropicalDiagram(2, LINE, (p,)), DiagramError, "edge", (1, 2)),
    ("TropicalDiagram ray direction", lambda p: TropicalDiagram(2, LINE, (), ((0, p),)), DiagramError,
     "ray direction", (1, 2)),
    ("regular_subdivision points", lambda p: regular_subdivision([(0, 0), (3, 0), p], [0, 0, 0]), ChargeError,
     "point", (1, 2)),
    ("regular_subdivision heights", lambda p: regular_subdivision([(0, 0), (1, 0), (0, 1)], p), ChargeError,
     "height", (1, 2, 0)),
    ("ChargeMatrix rows", lambda p: ChargeMatrix((p,), 2), ChargeError, "charge row", (1, -1)),
    ("Box", lambda p: Box((p,)), LatticeError, "box interval", (1, 2)),
    ("NovikovElement", lambda p: NovikovElement((p,)), NovikovError, "term", (1, 2)),
    ("nov", lambda p: nov([p]), NovikovError, "term", (1, 2)),
    ("Monomial", lambda p: Monomial(NOV_ONE, p), AnalyticError, "exponent", (1, 2)),
    ("WallTransformation gamma", lambda p: WallTransformation(0, p, (0, -1), "corrected"), AnalyticError,
     "gamma", (1, 2)),
    ("WallTransformation normal", lambda p: WallTransformation(0, (1, 0), p, "corrected"), AnalyticError,
     "normal", (1, 2)),
    ("ConeFamily apex", lambda p: ConeFamily(p, (1, 0), 1, NOV_ONE), AnalyticError, "apex", (1, 2)),
    ("ConeFamily gamma", lambda p: ConeFamily((0, 1), p, 1, NOV_ONE), AnalyticError, "gamma", (1, 2)),
    ("eval_series", lambda p: eval_series(SERIES, p), AnalyticError, "evaluation point", (1, 2)),
    ("CorrectionMap", lambda p: CorrectionMap(((p, nov([(1, 3)])),)), MirrorError, "correction vertex", (1, 2)),
]
ENTRY_POINTS = pytest.mark.parametrize(
    "call, error, field, point", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)


@ENTRY_POINTS
@pytest.mark.parametrize(
    "value", ["12", {"0": 1, "1": 2}, {1, 2}, 12, (c for c in (1, 2))],
    ids=["string", "mapping", "set", "number", "generator"],
)
def test_every_entry_point_refuses_what_is_not_a_list_or_a_tuple(call, error, field, point, value):
    reason = f"{field}: expected a list or a tuple, got {reprlib.repr(value)}"
    with pytest.raises(error, match=f"^{re.escape(reason)}$") as info:
        call(value)
    assert type(info.value) is error


@ENTRY_POINTS
def test_every_entry_point_reads_a_list_as_the_tuple(call, error, field, point):
    assert repr(call(list(point))) == repr(call(point))


def test_a_long_value_is_abbreviated():
    with pytest.raises(AffineError) as info:
        chamber_of(FOCUS_FOCUS, "1" * 100)
    assert str(info.value) == f"point: expected a list or a tuple, got {reprlib.repr('1' * 100)}"
    assert len(str(info.value)) < 80
    with pytest.raises(DiagramError) as info:
        locate_face(C3, list(range(100)))
    assert str(info.value) == "point dimension mismatch: (0, 1, 2, 3, 4, 5, ...)"
