"""Every integer a caller passes in is read by one rule, ``lattice.read_int``.

A number equal to an integer is read as that ``int`` (``Fraction(4, 2)`` and
``2.0`` as 2); a bool and any other number are refused, never truncated.
Each entry point below reads its integers through ``lattice.as_point`` or
``lattice.as_int`` and refuses with its own module's error class, naming the
field and the value.  An accepted spelling must give a result whose ``repr``
is the one the plain ``int`` gives, so no float or ``Fraction`` is stored.
"""

import re
from fractions import Fraction as Q

import pytest

from tropmirror.affine import AffineError, build_cut_presentation, transport_covector
from tropmirror.analytic import AnalyticError, ConeFamily, Monomial, WallTransformation
from tropmirror.charges import ChargeError, ChargeMatrix, regular_subdivision
from tropmirror.diagram import DiagramError, TropicalDiagram, dual_subdivision, gauge_points
from tropmirror.mirror import CorrectionMap, MirrorError, superpotential
from tropmirror.monodromy import MonodromyError, edge_covector
from tropmirror.novikov import NOV_ONE, nov

C3 = TropicalDiagram(2, ((0, 0),), (), ((0, (1, 0)), (0, (0, 1)), (0, (-1, -1))))
FOCUS_FOCUS = build_cut_presentation(TropicalDiagram(1, ((0,),)))
LINE = ((0, 0), (1, 0), (2, 0))

# (entry point, call with the integer, error class, field named, the int the accepted spellings equal)
CASES = [
    ("transport_covector", lambda v: transport_covector(FOCUS_FOCUS, ((1, -1), (-1, -1)), (0, v)),
     AffineError, "covector", 2),
    ("ChargeMatrix rows", lambda v: ChargeMatrix(((v, -2),), 2), ChargeError, "charge row", 2),
    ("ChargeMatrix width", lambda v: ChargeMatrix(((1, -1),), v), ChargeError, "width", 2),
    ("regular_subdivision", lambda v: regular_subdivision([(0, 0), (v, 0), (0, 1)], [0, 0, 0]),
     ChargeError, "point", 2),
    ("Monomial", lambda v: Monomial(NOV_ONE, (v, 0)), AnalyticError, "exponent", 2),
    ("WallTransformation gamma", lambda v: WallTransformation(0, (v, 1), (0, -1), "corrected"),
     AnalyticError, "gamma", 2),
    ("WallTransformation normal", lambda v: WallTransformation(0, (1, 0), (0, v), "corrected"),
     AnalyticError, "normal", 2),
    ("ConeFamily apex", lambda v: ConeFamily((0, v), (1, 0), 1, NOV_ONE), AnalyticError, "apex", 2),
    ("ConeFamily gamma", lambda v: ConeFamily((0, 1), (v, 0), 1, NOV_ONE), AnalyticError, "gamma", 2),
    ("ConeFamily power", lambda v: ConeFamily((0, 1), (1, 0), v, NOV_ONE), AnalyticError, "power", 2),
    ("TropicalDiagram dim", lambda v: TropicalDiagram(v, ((0, 0),)), DiagramError, "dimension", 2),
    ("TropicalDiagram edges", lambda v: TropicalDiagram(2, LINE, ((0, v),)), DiagramError, "edge", 2),
    ("TropicalDiagram ray vertex", lambda v: TropicalDiagram(2, LINE, (), ((v, (0, 1)),)),
     DiagramError, "ray vertex", 2),
    ("TropicalDiagram ray direction", lambda v: TropicalDiagram(2, LINE, (), ((0, (v, 1)),)),
     DiagramError, "ray direction", 2),
    ("CorrectionMap", lambda v: CorrectionMap((((v, 0), nov([(1, 3)])),)), MirrorError, "correction vertex", 2),
    ("gauge_points root face", lambda v: gauge_points(LINE, v), DiagramError, "root face", 2),
    ("dual_subdivision root face", lambda v: dual_subdivision(C3, root_face=v), DiagramError, "root face", 2),
    ("edge_covector", lambda v: edge_covector(C3, v), MonodromyError, "edge row", 2),
    # a sign gauge is +1 or -1, so its accepted spellings are those of -1
    ("gauge_points sign", lambda v: gauge_points(LINE, 0, v), DiagramError, "sign gauge", -1),
    ("dual_subdivision sign", lambda v: dual_subdivision(C3, root_face=0, sign=v), DiagramError, "sign gauge", -1),
    # superpotential hands its sign to dual_subdivision, as it does its base point to face_heights
    ("superpotential sign", lambda v: superpotential(C3, sign=v), DiagramError, "sign gauge", -1),
]


@pytest.mark.parametrize("call, error, field, n", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_every_entry_point_reads_integers_by_one_rule(call, error, field, n):
    for value in (Q(1, 2), 1.5, True):
        with pytest.raises(error, match=rf"^{field}: expected an integer, got {re.escape(repr(value))}$") as info:
            call(value)
        assert type(info.value) is error
    for value in (Q(2 * n, 2), float(n)):
        assert repr(call(value)) == repr(call(n))


def test_a_sign_read_as_minus_one_leaves_no_float_in_the_superpotential():
    g = superpotential(C3, sign=-1.0)
    assert g == superpotential(C3, sign=-1)
    assert all(type(c) is Q for c in g.slope)
    assert all(type(a) is int for alpha, _ in g.terms for a in alpha)
