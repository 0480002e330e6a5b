"""The one-pass series collector against the per-term code it replaced.

``series_mul`` and ``series_eq_mod`` are compared with their oracles on
coefficients of mixed truncations, on products and differences that cancel
exactly, and on series with disjoint exponent sets.  ``ConeFamily.materialize``
is compared with the Monomial-returning oracle, refusals included.
"""

import random
from fractions import Fraction as Q

from helpers import materialize_oracle, nov_scale, series_eq_mod_oracle, series_mul_oracle
from tropmirror.analytic import AnalyticError, ConeFamily, Monomial, series, series_eq_mod, series_mul
from tropmirror.lattice import Box, vadd
from tropmirror.novikov import nov, nov_neg, nov_truncate

BOX_PLUS = Box(((Q(1, 4), Q(2)), (Q(1, 4), Q(2))))
LEFT = [(u1, u2) for u1 in range(-3, 0) for u2 in range(-2, 3)]
RIGHT = [(u1, u2) for u1 in range(0, 3) for u2 in range(-2, 3)]


def _outcome(fn, *args):
    """fn's result, or the message it refused with."""
    try:
        return fn(*args)
    except AnalyticError as exc:
        return f"AnalyticError: {exc}"


def _coeff(rng: random.Random):
    """A nonzero coefficient; half carry a truncation, often one that cuts its own terms."""
    trunc = None if rng.random() < 0.5 else Q(rng.randint(0, 16), rng.randint(1, 3))
    while True:
        terms = [(Q(rng.randint(-4, 20), rng.randint(1, 4)), Q(rng.randint(-6, 6), rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 4))]
        c = nov(terms, trunc)
        if c:
            return c


def _series(rng: random.Random, grid, n: int, chamber: str = "V_plus"):
    terms = [Monomial(_coeff(rng), rng.choice(grid)) for _ in range(n)]
    return series(terms, chamber, BOX_PLUS, Q(rng.randint(4, 30), rng.randint(1, 2)))


def _cancelling_pair(rng: random.Random):
    """a = c z^u + c z^v, b = d z^w - d z^(u+w-v): the products on z^(u+w) cancel exactly."""
    c, d = _coeff(rng), _coeff(rng)
    u, v = rng.sample(LEFT + RIGHT, 2)
    w = rng.choice(RIGHT)
    w2 = tuple(ui + wi - vi for ui, wi, vi in zip(u, w, v))
    extra_a = [Monomial(_coeff(rng), rng.choice(LEFT)) for _ in range(rng.randint(0, 2))]
    a = series([Monomial(c, u), Monomial(c, v)] + extra_a, "V_plus", BOX_PLUS, 20)
    b = series([Monomial(d, w), Monomial(nov_neg(d), w2)], "V_plus", BOX_PLUS, 20)
    return a, b


def test_series_mul_matches_the_oracle():
    rng = random.Random(1201)
    seen = {"cancelled": 0, "truncated": 0, "untruncated": 0, "refused": 0}
    for i in range(300):
        kind = i % 4
        if kind == 0:
            a, b = _series(rng, LEFT + RIGHT, rng.randint(0, 6)), _series(rng, LEFT + RIGHT, rng.randint(0, 6))
        elif kind == 1:
            a, b = _series(rng, LEFT, rng.randint(1, 6)), _series(rng, RIGHT, rng.randint(1, 6))
        elif kind == 2:
            a, b = _cancelling_pair(rng)
        else:
            a, b = _series(rng, LEFT, 3), _series(rng, RIGHT, 3, rng.choice(("V_plus", "V_minus")))
        want = _outcome(series_mul_oracle, a, b)
        assert _outcome(series_mul, a, b) == want
        if isinstance(want, str):
            seen["refused"] += 1
            continue
        products = {vadd(ma.expo, mb.expo) for ma in a.terms for mb in b.terms}
        seen["cancelled"] += len(want.terms) < len(products)
        for m in want.terms:
            seen["untruncated" if m.coeff.truncation is None else "truncated"] += 1
    assert min(seen.values()) >= 20, seen


def test_series_eq_mod_matches_the_oracle():
    rng = random.Random(1202)
    verdicts = {True: 0, False: 0}
    kinds = {"equal": 0, "perturbed": 0, "retruncated": 0, "disjoint": 0, "cancelled": 0}
    for i in range(400):
        kind = tuple(kinds)[i % len(kinds)]
        kinds[kind] += 1
        a = _series(rng, LEFT + RIGHT, rng.randint(0, 6))
        E = Q(rng.randint(-4, 24), rng.randint(1, 3))
        if kind == "equal":
            b = a
        elif kind == "perturbed":
            # one term moved by t^s: a difference at z^u of valuation about s
            s = Q(rng.randint(0, 30), rng.randint(1, 2))
            bump = Monomial(nov([(s, rng.choice((-1, 1)))]), rng.choice(LEFT + RIGHT))
            b = series(list(a.terms) + [bump], "V_plus", BOX_PLUS, a.truncation)
        elif kind == "retruncated":
            terms = [(nov_truncate(m.coeff, Q(rng.randint(0, 24), 2)), m.expo) for m in a.terms]
            b = series([Monomial(c, u) for c, u in terms if c], "V_plus", BOX_PLUS, a.truncation)
        elif kind == "disjoint":
            a = _series(rng, LEFT, rng.randint(1, 4))
            b = _series(rng, RIGHT, rng.randint(1, 4))
        else:
            # b = 2a - a: the two copies of a cancel term by term
            doubled = [Monomial(nov_scale(2, m.coeff), m.expo) for m in a.terms]
            negated = [Monomial(nov_neg(m.coeff), m.expo) for m in a.terms]
            b = series(doubled + negated, "V_plus", BOX_PLUS, a.truncation)
        want = series_eq_mod_oracle(a, b, E)
        assert series_eq_mod(a, b, E) is want
        assert series_eq_mod(b, a, E) is series_eq_mod_oracle(b, a, E)
        verdicts[want] += 1
    assert min(verdicts.values()) >= 50, verdicts


GAMMAS = ((1, 0), (0, 1), (1, 1), (-1, 0), (2, -1), (0, 0), (1, -1))
BOXES = (
    BOX_PLUS,
    Box(((Q(1, 4), Q(2)), (Q(-2), Q(-1, 4)))),
    Box(((Q(-1, 3), Q(5, 2)), (Q(1, 7), Q(3)))),
)


def test_materialize_matches_the_oracle():
    rng = random.Random(1203)
    seen = {"terms": 0, "empty": 0, "cone family coefficient must be nonzero": 0,
            "cone family has no val-positive increments on the chamber": 0}
    for i in range(600):
        coeff = nov([], Q(3)) if i % 10 == 0 else _coeff(rng)
        family = ConeFamily(rng.choice(LEFT + RIGHT), rng.choice(GAMMAS), rng.randint(1, 5), coeff)
        truncation, box = Q(rng.randint(-40, 60), rng.randint(1, 3)), rng.choice(BOXES)
        want = _outcome(materialize_oracle, family, truncation, box)
        got = _outcome(family.materialize, truncation, box)
        if isinstance(want, str):
            assert got == want
            seen[want.removeprefix("AnalyticError: ")] += 1
            continue
        assert type(got) is list
        assert [(m.expo, m.coeff) for m in want] == [(e, nov_scale(c, coeff)) for e, c in got]
        assert all(type(e) is tuple and type(c) is int for e, c in got)
        seen["terms" if got else "empty"] += 1
    assert min(seen.values()) >= 10, seen
