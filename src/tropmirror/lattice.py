"""Exact planar lattice geometry.

Everything in this module is integer/rational arithmetic on tuples: primitive
vectors, signed determinants, convex hulls, and rational boxes.  No
floating point is used anywhere; rounding would silently break unimodularity
tests downstream, so all predicates are exact.

Vectors and points are plain tuples (``int`` entries for lattice vectors,
``Fraction`` entries for rational points).  Dimensions 1, 2 and 3 occur.

The file readers of every module read their numbers, points, lists and
objects here (``read_int``, ``read_rational``, ``as_point``, ``read_list``,
``read_object``) and report a malformed value through one guard,
``malformed``, which also names a missing key;
``common_denominator`` bounds the lcm over which a set of read rationals is
scaled to integers, and ``over_limit`` words the refusal of a number too
long to print.  Every point or vector, from a file or a caller (a vertex, an
edge, a base, evaluation or path point, a covector, an exponent, a charge
row, a box interval, a Novikov term, an option of the CLI), is read by
``as_point``, which takes a list or a tuple (its shape checked by
``as_sequence``) and refuses any other value and one of the wrong
dimension, showing the point as read, ``(0, 0, 1/2)``; an integer (a sign,
a row, a dimension) with ``as_int``; and a rational (a truncation, a shift,
the CLI's ``-E``) with ``as_rational``.  All three name the field in the
caller's error.

One rule says what an integer is, for files, the CLI and the API alike:
``read_int``, the only code that turns a caller's value into an ``int``.  It
takes a string that ``int`` reads and a number equal to an integer, and
refuses a bool and any other number rather than truncate it.  One rule says
what a rational is: ``read_rational``, the only code that turns a caller's
value into a ``Fraction`` and ``as_point``'s default reader.  It bounds a
string at DIGITS digits above and below the bar, reads a number exactly,
and refuses a bool.

Both rules word every refusal themselves, one sentence per kind: ``expected
an integer, got <value>``, ``expected a rational number, got <value>``, and
``<value> is over the limit of DIGITS digits`` for a string past the bound.
No Python text (``Fraction(1, 0)``, ``invalid literal``, the
``sys.set_int_max_str_digits()`` advice) reaches the caller, and no other
module words a number that cannot be read.

One rule says how a message shows a value, in every module: ``shown`` shows
a caller's value as ``reprlib`` abbreviates it, and ``shown_point`` a read
point as the package prints it, ``(0, 1/2)``, its entries abbreviated alike.
Any ``int`` or ``Fraction`` with more than DIGITS digits above or below the
bar, which ``str`` refuses, is shown as the one marker ``<a number over the
limit of DIGITS digits>``, so no message raises Python's digit-limit error
or shows a memory address.  ``validate``'s witnesses are its report, so
they are shown whole, as they were printed before; and a writer refuses a
number too long to print by what holds it, in the wording it had, through
the one guard ``printed``.
"""

from __future__ import annotations

import re
import reprlib
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .record import frozen

Vec = tuple[int, ...]
QPoint = tuple[Fraction, ...]


class LatticeError(ValueError):
    """Raised on malformed lattice-geometric input."""


def vadd(a: Sequence, b: Sequence) -> tuple:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Sequence, b: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: Sequence) -> tuple:
    return tuple(-x for x in a)


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b, strict=True))


def cross2(a: Sequence, b: Sequence):
    """Signed 2x2 determinant a_x b_y - a_y b_x."""
    return a[0] * b[1] - a[1] * b[0]


def rot_minus90(a: Sequence) -> tuple:
    """Clockwise quarter turn (x, y) -> (y, -x)."""
    return (a[1], -a[0])


def content(v: Sequence[int]) -> int:
    return gcd(*v)


def primitive(v: Sequence[int]) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries.

    The result has entry-gcd 1 and the same direction (sign preserved).
    """
    g = content(v)
    if g == 0:
        raise LatticeError("zero has no primitive representative")
    return tuple(x // g for x in v)


def is_primitive(v: Sequence[int]) -> bool:
    return content(v) == 1  # 0 for the zero vector


def convex_hull(points: Sequence[Sequence]) -> list[tuple]:
    """Strict convex hull corners, counterclockwise from the lex-least (monotone chain).

    Points on a hull edge but not at a corner are dropped; two or fewer
    distinct points are returned sorted.
    """
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            # pop while out[-2], out[-1], p make no left turn (cross2, inlined)
            while len(out) >= 2:
                a, b = out[-2], out[-1]
                if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


# --- reading JSON ------------------------------------------------------------
#
# Every file reader decides "is this value a number we accept" here, and turns
# whatever its body raises on a malformed value into one error per file kind;
# so does every function and record that reads a point or an integer from its
# caller, naming the field in its module's error.

# What a reader's body raises on a value of the wrong shape or size.
MALFORMED = (KeyError, TypeError, ValueError, AttributeError, ArithmeticError)

# CPython's default int-to-string limit, so every number read can be printed back.
DIGITS = 4300
_TOO_LARGE = 10**DIGITS
# Matched from the start of a string: a run of more than DIGITS digits, looked
# for only in a string that long, which ``int`` would refuse without naming
# the text; or the exponent of an exponent-form string, its digits in group 2
# if they are at most DIGITS (``(?=(...))\1`` takes the text before the e
# without backtracking into it).
_LONG_RUN_OR_EXPONENT = re.compile(
    rf"(?=[\s\S]{{{DIGITS + 1}}})[\s\S]*?(?<![\d_])\d(?:_?\d){{{DIGITS}}}"
    rf"|(?=([^eE]*))\1[eE][-+]?(\d(?:_?\d){{0,{DIGITS - 1}}})\s*\Z"
)


def _reraise(where: str, exc: Exception, error: type):
    """Raise ``error("<where>: <reason>")`` for ``exc``, which a reader raised on a malformed value.

    The reason is the exception's text, and for a missing key ``missing key
    "<key>"`` rather than Python's bare quoted key.
    """
    reason = f'missing key "{exc.args[0]}"' if isinstance(exc, KeyError) else exc
    raise error(f"{where}: {reason}") from exc


@contextmanager
def malformed(where: str, error: type = ValueError) -> Iterator[None]:
    """Re-raise what the body raises on malformed input as ``error("<where>: <reason>")``.

    ``where`` names the file (``malformed diagram JSON``) or a part of it
    (``entry 3``, which the file's guard then prefixes in turn).
    """
    try:
        yield
    except MALFORMED as exc:
        _reraise(where, exc, error)


def _refuse(value, kind):
    """Raise the one refusal of a number that cannot be read.

    It is ``expected <kind>, got <value>``, or with no kind ``<value> is over
    the limit of DIGITS digits``; the value is ``shown``.
    """
    if kind:
        raise ValueError(f"expected {kind}, got {shown(value)}")
    raise ValueError(over_limit(f"{shown(value)} is"))


def read_int(value) -> int:
    """An integer: a string that ``int`` reads, or a number equal to an integer, but no bool.

    ``2.0`` and ``Fraction(4, 2)`` read as 2; ``Fraction(1, 2)``, ``1.9``,
    ``inf``, ``nan`` and ``true`` are refused rather than truncated, as
    ``expected an integer, got <value>``, and a string with a run of more than
    DIGITS digits as ``<value> is over the limit of DIGITS digits``.
    """
    if value.__class__ is int:
        return value
    try:
        n = int(value)
        if isinstance(value, str) or n == value and not isinstance(value, bool):
            return n
    except (TypeError, ValueError, OverflowError):  # not a number, inf, nan, a string that int does not read
        pass
    found = isinstance(value, str) and _LONG_RUN_OR_EXPONENT.match(value)
    _refuse(value, None if found and not found[2] else "an integer")


def read_rational(value) -> Fraction:
    """A rational: what ``Fraction`` reads, but no bool; a string has at most DIGITS digits above and below the bar.

    A number (an ``int``, a ``Fraction``, a ``float``) is read exactly and
    without the bound, as the records also take what the package computed
    from read values; a float reads as its binary value, ``0.1`` as
    ``3602879701896397/36028797018963968``.  A string with a run of more than
    DIGITS digits, or with an exponent over 2 * DIGITS, is refused before
    ``Fraction`` parses it and builds the power of ten: the mantissa's integer
    and decimal digits are at most DIGITS each, so a nonzero value could not
    be in bounds.  A string past the bound is refused as ``<value> is over
    the limit of DIGITS digits``, and any other value ``Fraction`` does not
    read (``'x'``, ``'1/0'``, ``inf``, ``nan``, ``None``) or a bool as
    ``expected a rational number, got <value>``.
    """
    if value.__class__ is Fraction:
        return value
    kind = "a rational number"
    try:
        if isinstance(value, str):
            found = _LONG_RUN_OR_EXPONENT.match(value)
            if not found or found[2] and int(found[2]) <= 2 * DIGITS:
                q = Fraction(value)
                if abs(q.numerator) < _TOO_LARGE and q.denominator < _TOO_LARGE:
                    return q
            kind = None
        elif not isinstance(value, bool):
            return Fraction(value)
    except (TypeError, ValueError, ArithmeticError):  # not a number, 1/0, inf, nan
        pass
    _refuse(value, kind)


def as_sequence(p, what: str, error: type) -> Sequence:
    """``p`` if it is a list or a tuple: the shape of a point, checked before any entry is read.

    Any other value (a string, a mapping, a set, a generator) is refused as
    ``error("<what>: expected a list or a tuple, got <value>")``, the value
    ``shown``.
    """
    if isinstance(p, (list, tuple)):
        return p
    raise error(f"{what}: expected a list or a tuple, got {shown(p)}")


def as_point(p, dim: int | None, what: str, error: type, number=read_rational) -> tuple:
    """A point as a tuple of ``number``: the one reader of a vector, from a file or a caller.

    A value that is not a list or a tuple is refused by ``as_sequence``, an
    entry that ``number`` refuses as ``error("<what>: <reason>")``, and then a
    point without ``dim`` entries as ``error("<what> dimension mismatch:
    <point>")``; a ``dim`` of None checks no length.  The point is shown as
    it was read, by ``shown_point``.
    """
    if not isinstance(p, (list, tuple)):  # tested here too, so that a point read costs no extra call
        as_sequence(p, what, error)
    try:
        point = tuple(map(number, p))
    except MALFORMED as exc:
        _reraise(what, exc, error)
    if dim is not None and len(point) != dim:
        raise error(f"{what} dimension mismatch: {shown_point(point)}")
    return point


def as_int(value, what: str, error: type) -> int:
    """A caller's integer, read as ``as_point`` reads the entries of an integer point."""
    return as_point((value,), None, what, error, read_int)[0]


def as_rational(value, what: str, error: type) -> Fraction:
    """A caller's rational number, read as ``as_point`` reads the entries of a rational point."""
    return as_point((value,), None, what, error)[0]


def common_denominator(values: Iterable[Fraction], kind: str, error: type) -> int:
    """The lcm of the values' denominators, refused with ``error`` once it has more than DIGITS digits.

    Every integer predicate on the scaled values grows with this lcm, which a
    few inputs each within DIGITS digits can push to any size.  It is
    accumulated one value at a time and checked after each step, so a
    refused input costs at most one lcm of two numbers under the limit.
    """
    den = 1
    for q in values:
        den = lcm(den, q.denominator)
        if den >= _TOO_LARGE:
            raise error(f"the common denominator of the {kind} is over the limit of {DIGITS} digits")
    return den


def read_object(value, contents: str) -> dict:
    """A JSON object; anything else is refused as ``expected an object <contents>, got <type>``."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object {contents}, got {type(value).__name__}")
    return value


def read_list(value, contents: str) -> list:
    """A JSON list; anything else is refused as ``expected a list of <contents>, got <value>``.

    A string is refused rather than read character by character.  The value
    is ``shown``, so a large one is not echoed whole.
    """
    if not isinstance(value, list):
        raise TypeError(f"expected a list of {contents}, got {shown(value)}")
    return value


def over_limit(holder: str) -> str:
    """``<holder> over the limit of DIGITS digits``: the refusal of a number that ``str`` cannot print."""
    return f"{holder} over the limit of {DIGITS} digits"


OVER = f"<{over_limit('a number')}>"  # how a message shows a number that str cannot print


def _too_long(x) -> bool:
    """Whether ``x`` is an ``int`` or a ``Fraction`` that ``str`` refuses: over DIGITS digits above or below the bar.

    ``reprlib`` would raise Python's digit-limit error on such an ``int`` and
    show such a ``Fraction`` by its address.
    """
    return x.__class__ in (int, Fraction) and not abs(x.numerator) < _TOO_LARGE > x.denominator


class _Shown(reprlib.Repr):
    """``reprlib``'s abbreviations, with a number too long to print shown as ``OVER``."""

    def repr1(self, x, level):
        return OVER if _too_long(x) else super().repr1(x, level)


shown = _Shown().repr  # a caller's value in a message, as reprlib abbreviates it: '999999999999...9999999999999'
_WHOLE = _Shown()
_WHOLE.maxstring = _WHOLE.maxtuple = sys.maxsize


def shown_point(point, whole=False) -> str:
    """A read point in a message, as the package prints it, ``(0, 1/2)``.

    Its entries' strings are abbreviated as ``reprlib`` abbreviates a string,
    and past six entries the point, unless ``whole``.
    """
    entries = tuple(c if _too_long(c) else str(c) for c in point)
    return (_WHOLE.repr if whole else shown)(entries).replace("'", "")


def printed(write, holder: str, *args, error=ValueError):
    """``write()``, refused as ``error(over_limit(holder.format(*args)))`` where ``str`` refuses a number in it.

    ``holder`` names what holds the number, as ``web vertex {} has a
    coordinate``; it is filled only on a refusal.  A subclass of
    ``ValueError`` (a JSON or a Unicode decode error) is not the digit limit
    and passes through.
    """
    try:
        return write()
    except ValueError as exc:
        if exc.__class__ is not ValueError:
            raise
        raise error(over_limit(holder.format(*args))) from None


@frozen
class Box:
    """Axis-aligned product of closed rational intervals."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        ivs = tuple(as_point(iv, 2, "box interval", LatticeError) for iv in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for lo, hi in ivs:
            if lo > hi:
                raise LatticeError("box interval has lower > upper")

    @property
    def dim(self) -> int:
        return len(self.intervals)
