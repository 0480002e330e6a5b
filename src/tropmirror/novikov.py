"""Exact arithmetic in the universal Novikov field, truncated at an energy level.

Elements are finite sorted term lists ``(exponent, coefficient)`` with exact
rational entries, modeling series sum_i a_i t^{r_i} with r_i strictly
increasing.  The valuation is the minimal exponent.  Every value this package
computes (edge pairings, lattice areas, lifting heights) is rational, so a
rational coefficient field preserves bit-exact reproducibility; swapping in a
richer coefficient field is an interface decision deferred on purpose.

Truncation is a property of the element: ``truncation=None`` means no
truncation (+infinity), otherwise all stored exponents are < truncation.
Arithmetic propagates truncations pessimistically (min of the operands),
mirroring computation over the quotients by energy level.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, Optional

from .lattice import as_point, as_rational
from .record import frozen

Q = Fraction
_new = object.__new__
_set = object.__setattr__


class NovikovError(ValueError):
    pass


def _min_trunc(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@frozen
class NovikovElement:
    """A truncated Novikov series with exact rational exponents/coefficients."""

    terms: tuple[tuple[Fraction, Fraction], ...]
    truncation: Optional[Fraction] = None

    def __post_init__(self):
        terms = tuple(as_point(t, 2, "term", NovikovError) for t in self.terms)
        for (e1, c1), (e2, _) in zip(terms, terms[1:]):
            if e1 >= e2:
                raise NovikovError("exponents must be strictly increasing")
        for _, c in terms:
            if c == 0:
                raise NovikovError("zero coefficients are not stored")
        trunc = None if self.truncation is None else as_rational(self.truncation, "truncation", NovikovError)
        if trunc is not None and terms and terms[-1][0] >= trunc:
            raise NovikovError("term exponent at or above truncation")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "truncation", trunc)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)


def _trusted(terms: tuple, truncation: Optional[Fraction]) -> NovikovElement:
    """A kernel output, stored without the checks of ``__post_init__``.

    Only for terms the kernel built itself: a tuple of ``(Fraction,
    Fraction)`` pairs with strictly increasing exponents, all below
    ``truncation`` (a ``Fraction`` or ``None``), and no zero coefficient.
    """
    a = _new(NovikovElement)
    _set(a, "terms", terms)
    _set(a, "truncation", truncation)
    return a


def _from_sums(acc: dict, trunc: Optional[Fraction]) -> NovikovElement:
    """The element of a dict ``{exponent: coefficient}`` of Fractions."""
    return _trusted(
        tuple((e, c) for e, c in sorted(acc.items()) if c and (trunc is None or e < trunc)), trunc
    )


def _sum_terms(terms: Iterable[tuple], trunc: Optional[Fraction]) -> NovikovElement:
    """The element of unsorted (exponent, coefficient) pairs of Fractions, equal exponents merged."""
    acc: dict[Fraction, Fraction] = {}
    for e, c in terms:
        acc[e] = acc[e] + c if e in acc else c
    return _from_sums(acc, trunc)


def nov(terms: Iterable[tuple] = (), truncation=None) -> NovikovElement:
    """Build an element from unsorted (exponent, coefficient) pairs.

    Pairs with equal exponents are merged, zero coefficients dropped, and
    terms at or above the truncation discarded.
    """
    trunc = None if truncation is None else as_rational(truncation, "truncation", NovikovError)
    return _sum_terms((as_point(t, 2, "term", NovikovError) for t in terms), trunc)


NOV_ONE = nov([(0, 1)])


def nov_val(a: NovikovElement) -> Optional[Fraction]:
    """Minimal exponent; ``None`` (= +infinity) for the zero element."""
    return a.terms[0][0] if a.terms else None


def nov_truncate(a: NovikovElement, E) -> NovikovElement:
    E = as_rational(E, "truncation", NovikovError)
    trunc = _min_trunc(a.truncation, E)
    return _trusted(tuple((e, c) for e, c in a.terms if e < trunc), trunc)


def nov_add(a: NovikovElement, b: NovikovElement) -> NovikovElement:
    """The sum, truncated at the lesser of the two truncations."""
    return _sum_terms(a.terms + b.terms, _min_trunc(a.truncation, b.truncation))


def nov_shift(delta, a: NovikovElement) -> NovikovElement:
    """Multiply by t^delta (shifts the truncation window along)."""
    delta = as_rational(delta, "shift", NovikovError)
    trunc = None if a.truncation is None else a.truncation + delta
    return _trusted(tuple((e + delta, c) for e, c in a.terms), trunc)


def _product_truncation(a: NovikovElement, b: NovikovElement) -> Optional[Fraction]:
    """Sound truncation window for a product.

    A term dropped from a (exponent >= T_a) meets stored or dropped content of
    b at exponent >= T_a + min(val b, T_b), and symmetrically; below the
    minimum of those bounds the product is fully determined.
    """

    def lowest(x: NovikovElement) -> Optional[Fraction]:
        v = nov_val(x)
        if v is not None:
            return v  # stored terms sit below the truncation
        return x.truncation

    candidates = []
    if a.truncation is not None:
        e = lowest(b)
        if e is not None:
            candidates.append(a.truncation + e)
    if b.truncation is not None:
        e = lowest(a)
        if e is not None:
            candidates.append(b.truncation + e)
    return min(candidates) if candidates else None


def nov_mul(a: NovikovElement, b: NovikovElement) -> NovikovElement:
    trunc = _product_truncation(a, b)
    # an exponent at or past the truncation is skipped before its coefficients are multiplied
    return _sum_terms(
        ((e, ca * cb) for ea, ca in a.terms for eb, cb in b.terms for e in (ea + eb,) if trunc is None or e < trunc),
        trunc,
    )


def nov_inv(a: NovikovElement, E) -> NovikovElement:
    """Inverse of a nonzero element modulo t^E.

    Writes a = c0 t^v (1 + r) with r = sum_s r_s t^s, s > 0.  Then
    1/(1 + r) = sum_e b_e t^e with b_0 = 1 and b_e = -sum_s r_s b_{e-s}; its
    exponents lie in the monoid that the exponents of r generate.  The
    monoid elements below E are enumerated in increasing order by a heap,
    over one common denominator, so every b_{e-s} is known before b_e.  The
    result b = t^{-v} (1/c0) sum_e b_e t^e satisfies a*b == 1 mod t^E, and
    carries truncation E - val(a).  An a truncated at T is known only below
    t^T, so r only below t^(T-v): then E is lowered to T - v, and b carries
    min(E - v, T - 2v).
    """
    if a.is_zero():
        raise NovikovError("division by zero")
    E = as_rational(E, "truncation", NovikovError)
    v, c0 = a.terms[0]
    if a.truncation is not None and a.truncation - v < E:
        E = a.truncation - v
    tail = [(e - v, c / c0) for e, c in a.terms[1:] if e - v < E]
    den = math.lcm(*(s.denominator for s, _ in tail))
    steps = [(s.numerator * (den // s.denominator), -r) for s, r in tail]
    limit = math.ceil(E * den)  # an integer exponent n stands for n/den < E iff n < limit
    coeffs: dict[int, Fraction] = {}
    heap = [0] if limit > 0 else []
    seen = set(heap)
    while heap:
        n = heappop(heap)
        if n == 0:
            b = Q(1)
        else:
            b = 0
            for s, r in steps:
                prev = coeffs.get(n - s)
                if prev is not None:
                    b += r * prev
        if b:
            coeffs[n] = b
        for s, _ in steps:
            m = n + s
            if m < limit and m not in seen:
                seen.add(m)
                heappush(heap, m)
    inv_c0 = 1 / c0
    return _trusted(tuple((Q(n, den) - v, b * inv_c0) for n, b in coeffs.items()), E - v)


# --- serialization ---------------------------------------------------------

def nov_to_text(a: NovikovElement) -> str:
    """Render as e.g. ``3/2*t^{1/3} + -1*t^{2}``; constants drop the t-power."""
    if a.is_zero():
        return "0"
    parts = []
    for e, c in a.terms:
        if e == 0:
            parts.append(str(c))
        else:
            parts.append(f"{c}*t^{{{e}}}")
    return " + ".join(parts)


def nov_to_json(a: NovikovElement) -> list[dict[str, str]]:
    return [{"exp": str(e), "coeff": str(c)} for e, c in a.terms]


def nov_from_json(data) -> NovikovElement:
    return nov([(item["exp"], item["coeff"]) for item in data])
