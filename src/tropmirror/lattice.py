"""Exact planar lattice geometry.

Everything in this module is integer/rational arithmetic on tuples: primitive
vectors, signed determinants, convex hulls, and rational boxes.  No
floating point is used anywhere; rounding would silently break unimodularity
tests downstream, so all predicates are exact.

Vectors and points are plain tuples (``int`` entries for lattice vectors,
``Fraction`` entries for rational points).  Dimensions 1, 2 and 3 occur.

The file readers of every module read their numbers, lists and objects here
(``read_int``, ``read_rational``, ``coords_from_json``, ``read_pair``,
``read_list``, ``read_object``) and report a malformed value through one guard,
``malformed``, which also names a missing key;
``common_denominator`` bounds the lcm over which a set of read rationals is
scaled to integers.  Every function and record that takes a point or an
integer vector from its caller (a base, evaluation or path point, a
covector, an exponent, a charge row) reads it with ``as_point``, which
refuses one of the wrong dimension, and an integer (a sign, a row, a
dimension) with ``as_int``; both name the field in the caller's error.

One rule says what an integer is, for files, the CLI and the API alike:
``read_int``, the only code that turns a caller's value into an ``int``.  It
takes a string that ``int`` reads and a number equal to an integer, and
refuses a bool and any other number rather than truncate it.
"""

from __future__ import annotations

import re
import reprlib
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


def is_zero(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def content(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v: Sequence[int]) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries.

    The result has entry-gcd 1 and the same direction (sign preserved).
    """
    g = content(v)
    if g == 0:
        raise LatticeError("zero has no primitive representative")
    return tuple(x // g for x in v)


def is_primitive(v: Sequence[int]) -> bool:
    return not is_zero(v) and content(v) == 1


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
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


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


def read_int(value) -> int:
    """An integer: a string that ``int`` reads, or a number equal to an integer, but no bool.

    ``2.0`` and ``Fraction(4, 2)`` read as 2; ``Fraction(1, 2)``, ``1.9``,
    ``inf``, ``nan`` and ``true`` are refused rather than truncated.
    """
    if value.__class__ is int:
        return value
    if isinstance(value, str):
        return int(value)
    try:
        n = int(value)
    except (OverflowError, ValueError):  # inf, nan
        n = None
    if n != value or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    return n


def read_rational(value) -> Fraction:
    """A rational field: what ``Fraction`` reads, but no bool, with at most DIGITS digits above and below the bar.

    An exponent-form string whose exponent is over 2 * DIGITS is refused before
    ``Fraction`` builds the power of ten: the mantissa's integer and decimal
    digits are at most DIGITS each, so a nonzero value could not be in bounds.
    """
    if isinstance(value, bool):
        raise ValueError(f"expected a rational number, got {value!r}")
    exponent = isinstance(value, str) and _EXPONENT.search(value)
    if not (exponent and abs(int(exponent[1])) > 2 * DIGITS):
        q = Fraction(value)
        if abs(q.numerator) < _TOO_LARGE and q.denominator < _TOO_LARGE:
            return q
    raise ValueError(f"{value!r} is over the limit of {DIGITS} digits")


def as_point(p, dim: int | None, what: str, error: type, number=Fraction) -> tuple:
    """A caller's point as a tuple of ``number``: the one reader of a caller's vector.

    An entry that ``number`` refuses is refused as ``error("<what>: <reason>")``,
    and a point without ``dim`` entries as ``error("<what> dimension
    mismatch")``; a ``dim`` of None checks no length.
    """
    try:
        p = tuple(map(number, p))
    except MALFORMED as exc:
        _reraise(what, exc, error)
    if dim is not None and len(p) != dim:
        raise error(f"{what} dimension mismatch")
    return p


def as_int(value, what: str, error: type) -> int:
    """A caller's integer, read as ``as_point`` reads the entries of an integer point."""
    return as_point((value,), None, what, error, read_int)[0]


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
    is shown as ``reprlib`` abbreviates it, so a large one is not echoed whole.
    """
    if not isinstance(value, list):
        raise TypeError(f"expected a list of {contents}, got {reprlib.repr(value)}")
    return value


def coords_from_json(value, parse=read_rational) -> tuple:
    """The coordinates of a point read from JSON, which must be a list."""
    return tuple(parse(c) for c in read_list(value, "coordinates"))


def read_pair(value, contents: str, parse=read_rational) -> tuple:
    """Two numbers read from a JSON list of two; anything else is refused as ``expected <contents>, got <value>``."""
    if isinstance(value, list) and len(value) == 2:
        return tuple(map(parse, value))
    raise TypeError(f"expected {contents}, got {reprlib.repr(value)}")


@frozen
class Box:
    """Axis-aligned product of closed rational intervals."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        ivs = tuple((Fraction(lo), Fraction(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for lo, hi in ivs:
            if lo > hi:
                raise LatticeError("box interval has lower > upper")

    @property
    def dim(self) -> int:
        return len(self.intervals)
