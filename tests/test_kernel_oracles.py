"""The Novikov kernel and series accumulation against the code they replaced.

Every element the kernel returns is stored without ``__post_init__``; each
test also checks that the public constructor would store the same thing.
"""

import random
from fractions import Fraction as Q

from helpers import (
    assert_kernel_output,
    eval_series_oracle,
    nov_add_merge_oracle,
    nov_add_oracle,
    nov_inv_oracle,
    nov_oracle,
    random_novikov,
    series_oracle,
    wall_cross_oracle,
)
from tropmirror.analytic import (
    AnalyticError,
    Monomial,
    WallTransformation,
    eval_series,
    series,
    wall_cross,
)
from tropmirror.lattice import Box
from tropmirror.novikov import (
    nov,
    nov_add,
    nov_inv,
    nov_mul,
    nov_neg,
    nov_shift,
    nov_truncate,
)

BOX_PLUS = Box(((Q(1, 4), Q(2)), (Q(1, 4), Q(2))))
BOX_MINUS = Box(((Q(1, 4), Q(2)), (Q(-2), Q(-1, 4))))


def _truncation(rng: random.Random):
    return None if rng.random() < 0.4 else Q(rng.randint(-4, 24), rng.randint(1, 3))


def _raw_terms(rng: random.Random) -> list:
    """Unsorted pairs with repeated exponents, zero coefficients and int entries."""
    pool = [Q(rng.randint(-8, 24), rng.randint(1, 6)) for _ in range(rng.randint(1, 6))]
    terms = []
    for _ in range(rng.randint(0, 8)):
        e = rng.choice(pool)
        c = Q(rng.randint(-9, 9), rng.randint(1, 5))
        if e.denominator == 1 and rng.random() < 0.3:
            e = int(e)
        if c.denominator == 1 and rng.random() < 0.3:
            c = int(c)
        terms.append((e, c))
    return terms


def _element(rng: random.Random):
    """A random element: about a third truncated, many with negative valuation."""
    return random_novikov(rng, nterms=5, truncation=_truncation(rng) if rng.random() < 0.5 else None)


def test_nov_matches_the_oracle():
    rng = random.Random(61)
    for _ in range(300):
        terms, trunc = _raw_terms(rng), _truncation(rng)
        got = nov(terms, trunc)
        assert got == nov_oracle(terms, trunc)
        assert_kernel_output(got)


def test_nov_add_matches_the_oracle():
    rng = random.Random(62)
    cancelled = 0
    for i in range(300):
        a = _element(rng)
        if i % 3 == 0:
            # b cancels some or all of a's terms
            keep = [t for t in a.terms if rng.random() < 0.5]
            b = nov([(e, -c) for e, c in a.terms] + keep, _truncation(rng))
        else:
            b = _element(rng)
        got = nov_add(a, b)
        assert got == nov_add_oracle(a, b)
        assert_kernel_output(got)
        cancelled += len(got.terms) < len({e for e, _ in a.terms + b.terms})
    assert cancelled >= 100


def test_nov_add_matches_the_linear_merge():
    rng = random.Random(64)
    cases = ("to zero", "empty operand", "overlapping", "disjoint", "a truncated", "b truncated", "neither truncated")
    counts = dict.fromkeys(cases, 0)
    for i in range(600):
        a = _element(rng) if i % 9 else nov((), _truncation(rng))
        kind = rng.randrange(5)
        if kind == 0:
            b = nov([(e, -c) for e, c in a.terms], _truncation(rng))  # cancels a below both truncations
        elif kind == 1:
            b = nov([(e, -c) for e, c in a.terms if rng.random() < 0.5] + _raw_terms(rng), _truncation(rng))
        elif kind == 2:
            b = nov([(e + Q(1, 97), c) for e, c in _element(rng).terms], _truncation(rng))
        elif kind == 3:
            b = nov((), _truncation(rng))
        else:
            b = _element(rng)
        got = nov_add(a, b)
        assert got == nov_add_merge_oracle(a, b), (a, b)
        assert_kernel_output(got)
        ea, eb = {e for e, _ in a.terms}, {e for e, _ in b.terms}
        counts["to zero"] += bool(ea or eb) and got.is_zero()
        counts["empty operand"] += not (ea and eb)
        counts["overlapping"] += bool(ea & eb)
        counts["disjoint"] += bool(ea and eb and not ea & eb)
        counts["a truncated"] += a.truncation is not None
        counts["b truncated"] += b.truncation is not None
        counts["neither truncated"] += a.truncation is None and b.truncation is None
    assert min(counts.values()) >= 50, counts


def test_every_kernel_output_is_what_the_public_constructor_stores():
    rng = random.Random(63)
    for _ in range(200):
        a, b = _element(rng), _element(rng)
        delta = Q(rng.randint(-9, 9), rng.randint(1, 4))
        for out in (
            nov_neg(a),
            nov_shift(delta, a),
            nov_shift(rng.randint(-3, 3), a),
            nov_truncate(a, delta),
            nov_truncate(a, rng.randint(-3, 9)),
            nov_mul(a, b),
            a - b,
        ):
            assert_kernel_output(out)


def _unit(rng: random.Random):
    """c0 t^v (1 + tail): leading coefficients other than +-1, truncated copies."""
    v = Q(rng.randint(-6, 6), rng.randint(1, 3))
    c0 = rng.choice([Q(1), Q(-1), Q(2), Q(-3), Q(3, 2), Q(-5, 7)])
    tail = [
        (v + Q(rng.randint(1, 12), rng.choice((1, 2, 3, 4))), Q(rng.randint(-9, 9), rng.randint(1, 4)))
        for _ in range(rng.randint(0, 4))
    ]
    trunc = None
    if rng.random() < 0.3:
        trunc = v + Q(rng.randint(1, 20), rng.randint(1, 2))
    return nov([(v, c0)] + tail, trunc), v


def test_nov_inv_matches_the_oracle():
    rng = random.Random(64)
    units = []
    for _ in range(240):
        a, v = _unit(rng)
        units.append((a, v + Q(rng.randint(-2, 14), rng.randint(1, 3))))
    one_t = nov([(0, 1), (1, 1)])
    units += [
        (nov([(Q(1, 3), 2)]), Q(5)),  # empty tail
        (nov([(-2, Q(-3, 4))]), Q(-1)),  # empty tail, E just above v
        (nov([(0, 2), (1, 3), (1, -3)]), Q(4)),  # a tail that cancels to zero
        (nov_add(one_t, nov([(1, -1), (2, 1)])), Q(6)),  # 1 + t^2
        (nov([(0, 1), (1, 1), (2, 1)]), Q(12)),  # 1/(1+t+t^2): every third b_e is 0
        (nov([(0, 3), (Q(1, 2), -3), (2, 5)], 3), Q(9)),  # truncated, leading 3
        (nov([(-1, 1), (0, 1)]), Q(-1)),  # E = v: nothing below it
        (nov([(-1, 1), (0, 1)]), Q(-3)),  # E below v
    ]
    for a, E in units:
        got = nov_inv(a, E)
        want = nov_inv_oracle(a, E)
        if a.truncation is not None:
            # a is known only below t^T, so its inverse only below t^(T - 2v)
            want = nov_truncate(want, a.truncation - 2 * a.terms[0][0])
        assert got == want, (a, E)
        assert_kernel_output(got)
    assert nov_inv(nov([(0, 1), (1, 1), (2, 1)]), 7).terms == tuple(
        (Q(e), Q(c)) for e, c in ((0, 1), (1, -1), (3, 1), (4, -1), (6, 1))
    )


def _monomials(rng: random.Random, n: int) -> list:
    grid = [(u1, u2) for u1 in range(-2, 3) for u2 in range(-2, 3)]
    out = []
    for _ in range(n):
        coeff = _element(rng)
        if coeff.is_zero():
            coeff = nov([(rng.randint(0, 4), 1)])
        expo = rng.choice(grid)
        out.append(Monomial(coeff, expo))
        if rng.random() < 0.2:
            out.append(Monomial(nov_neg(coeff), expo))  # cancels exactly
    return out


def _outcome(fn, *args):
    """fn's series, or the message it refused with."""
    try:
        return fn(*args)
    except AnalyticError as exc:
        return f"AnalyticError: {exc}"


def _check_series(got, want):
    assert got == want
    if not isinstance(got, str):
        for m in got.terms:
            assert_kernel_output(m.coeff)


def test_series_matches_the_oracle():
    rng = random.Random(65)
    empty = 0
    for _ in range(200):
        terms = _monomials(rng, rng.randint(0, 12))
        trunc = Q(rng.randint(1, 20), rng.randint(1, 2))
        want = _outcome(series_oracle, terms, "V_plus", BOX_PLUS, trunc)
        _check_series(_outcome(series, iter(terms), "V_plus", BOX_PLUS, trunc), want)
        empty += not want.terms  # an empty series takes the box's dimension
    assert empty >= 5


def test_eval_series_matches_the_oracle():
    rng = random.Random(66)
    for _ in range(200):
        a = series(_monomials(rng, rng.randint(0, 12)), "V_plus", BOX_PLUS,
                   Q(rng.randint(1, 40), rng.randint(1, 2)))
        point = (Q(rng.randint(-20, 20), rng.randint(1, 7)), Q(rng.randint(-20, 20), rng.randint(1, 7)))
        got = eval_series(a, point)
        assert got == eval_series_oracle(a, point)
        assert_kernel_output(got)


GAMMAS = ((1, 0), (0, 1), (1, 1), (-1, 0), (2, 1), (1, -1))
NORMALS = ((0, -1), (0, 1), (1, 0), (-1, 2), (1, 1))


def test_wall_cross_matches_the_oracle():
    rng = random.Random(67)
    outcomes = {"corrected": 0, "refused": 0}
    for i in range(200):
        a = series(_monomials(rng, rng.randint(1, 8)), "V_minus", BOX_MINUS, 10)
        w = WallTransformation(i, rng.choice(GAMMAS), rng.choice(NORMALS), "corrected")
        E = Q(rng.randint(2, 12), rng.randint(1, 2))
        target = rng.choice((BOX_PLUS, a.box))
        want = _outcome(wall_cross_oracle, a, w, E, target)
        _check_series(_outcome(wall_cross, a, w, E, target), want)
        outcomes["refused" if isinstance(want, str) else "corrected"] += 1
    assert min(outcomes.values()) >= 20, outcomes
