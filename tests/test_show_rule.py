"""A message shows a number too long to print as one marker, at every API entry point.

``lattice.shown`` shows a caller's value as ``reprlib`` abbreviates it and
``lattice.shown_point`` a read point as the package prints it, ``(0, 1/2)``.
Either shows an ``int`` or a ``Fraction`` with more than 4300 digits above or
below the bar, which ``str`` refuses, as ``<a number over the limit of 4300
digits>``: no refusal raises Python's digit-limit error in its place or shows
a memory address, whose text changes from run to run.  Each case of the table
gives one entry point such a number where it refuses a small one, and checks
the class of the refusal and its whole text, twice.
"""

from fractions import Fraction as Q

import pytest

from test_affine import c3
from tropmirror.affine import AffineError, build_cut_presentation, chamber_of
from tropmirror.analytic import AnalyticError, WallTransformation
from tropmirror.charges import ChargeError, ChargeMatrix
from tropmirror.diagram import DiagramError, TropicalDiagram, locate_face, validate
from tropmirror.hull import regular_subdivision
from tropmirror import lattice
from tropmirror.lattice import as_point, read_int
from tropmirror.mirror import CorrectionMap, MirrorError
from tropmirror.novikov import nov

N = 10**5000
OVER = "<a number over the limit of 4300 digits>"
LEAKS = ("Exceeds the limit", "set_int_max_str_digits", "instance at", "0x")

# (id, the call, the class it raises, its text)
TABLE = [
    ("locate_face", lambda: locate_face(c3(), (N, 0, 0)), DiagramError, f"point dimension mismatch: ({OVER}, 0, 0)"),
    (
        "chamber_of",
        lambda: chamber_of(build_cut_presentation(c3()), (N, 0, 1, 2)),
        AffineError,
        f"point dimension mismatch: ({OVER}, 0, 1, 2)",
    ),
    ("read_int Fraction", lambda: read_int(Q(N + 1, 2)), ValueError, f"expected an integer, got {OVER}"),
    ("read_int list", lambda: read_int([N]), ValueError, f"expected an integer, got [{OVER}]"),
    (
        "as_point",
        lambda: as_point(N, None, "point", ValueError),
        ValueError,
        f"point: expected a list or a tuple, got {OVER}",
    ),
    (
        "WallTransformation",
        lambda: WallTransformation(0, (2 * N, 0), (0, -1), "corrected"),
        AnalyticError,
        f"vanishing class ({OVER}, 0) is not primitive",
    ),
    (
        "CorrectionMap",
        lambda: CorrectionMap(tuple(((N, 0), nov([(1, 1)])) for _ in range(2))),
        MirrorError,
        f"repeated correction vertex ({OVER}, 0)",
    ),
    (
        "ChargeMatrix",
        lambda: ChargeMatrix(((N, 1 - N),), 2),
        ChargeError,
        f"charge row ({OVER}, {OVER}) does not sum to zero",
    ),
    (
        "regular_subdivision",
        lambda: regular_subdivision([(N, 0), (0, 1), (N, 0)], [0, 0, 0]),
        ChargeError,
        f"repeated point ({OVER}, 0) at indices 0, 2",
    ),
]


def _refusal(call, error) -> str:
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    return str(info.value)


@pytest.mark.parametrize("call, error, text", [case[1:] for case in TABLE], ids=[case[0] for case in TABLE])
def test_a_refusal_shows_a_number_too_long_to_print_as_the_marker(call, error, text):
    first = _refusal(call, error)
    assert not any(leak in first for leak in LEAKS), first
    assert first == _refusal(call, error) == text


def test_validate_reports_a_witness_too_long_to_print():
    diag = TropicalDiagram(2, ((0, 0),), rays=((0, (2 * N, 0)),))
    offenders = validate(diag).offenders
    assert offenders == validate(diag).offenders == (
        ("trivalent", "vertex 0 has valence 1"),
        ("balanced", "vertex 0 direction sum has a number over the limit of 4300 digits"),
        ("primitive_directions", f"ray 0 direction ({OVER}, 0) not primitive"),
    )


def test_the_marker_is_worded_once():
    assert lattice.OVER == OVER
    shown, shown_point = lattice.shown, lattice.shown_point
    # the bound is the first number that str refuses, above and below the bar
    limit = 10**4300
    for number, marked in ((limit - 1, False), (-limit + 1, False), (limit, True), (-limit, True)):
        for value in (number, Q(number, 3), Q(1, abs(number))):
            assert (shown(value) == OVER) is marked
            assert (OVER in shown_point((value, 0))) is marked


def test_a_point_is_shown_as_the_package_prints_it():
    shown_point = lattice.shown_point
    assert shown_point((0, Q(1, 2))) == "(0, 1/2)"
    assert shown_point((5,)) == "(5,)"
    assert shown_point(range(8)) == "(0, 1, 2, 3, 4, 5, ...)"
    long = 10**40 + 1
    assert shown_point((long, 1)) == "(100000000000...0000000000001, 1)"
    # whole, as a validation witness prints it
    assert shown_point((long, 1), whole=True) == f"({long}, 1)"
    assert shown_point(range(8), whole=True) == str(tuple(range(8)))
    assert shown_point((N, -N), whole=True) == f"({OVER}, {OVER})"
