import random
from fractions import Fraction as Q

import pytest

from helpers import nov_eq_mod, nov_zero, random_novikov
from tropmirror.novikov import (
    NovikovError,
    nov,
    nov_add,
    nov_from_json,
    nov_inv,
    nov_mul,
    nov_to_json,
    nov_to_text,
    nov_truncate,
    nov_val,
)


def test_val_examples():
    assert nov_val(nov([(Q(1, 2), 1), (1, 2)])) == Q(1, 2)
    assert nov_val(nov_zero()) is None
    assert nov_val(nov([(-1, 3), (2, 1)])) == -1


def test_add_examples():
    a = nov([(0, 1), (1, 1)])
    b = nov([(0, -1), (1, 1)])
    assert nov_add(a, b) == nov([(1, 2)])
    assert nov_add(a, nov_zero()) == a
    third = nov([(Q(1, 3), 1)])
    assert nov_add(third, third) == nov([(Q(1, 3), 2)])


def test_mul_examples():
    assert nov_mul(nov([(0, 1), (1, 1)]), nov([(0, 1), (1, -1)])) == nov([(0, 1), (2, -1)])
    assert nov_mul(nov([(Q(1, 2), 1)]), nov([(Q(1, 2), 1)])) == nov([(1, 1)])
    a = nov([(Q(-2, 3), 5), (7, Q(1, 3))])
    assert nov_mul(a, nov([(0, 1)])) == a


def test_inv_examples():
    assert nov_inv(nov([(0, 1), (1, 1)]), 4) == nov([(0, 1), (1, -1), (2, 1), (3, -1)], 4)
    assert nov_inv(nov([(Q(1, 3), 2)]), 1).terms == ((Q(-1, 3), Q(1, 2)),)
    a = nov([(0, 1), (1, 1), (2, 1)])
    b = nov_inv(a, 3)
    assert nov_eq_mod(nov_mul(a, b), nov([(0, 1)]), 3)
    with pytest.raises(NovikovError, match="division by zero"):
        nov_inv(nov_zero(), 5)


def test_inv_with_nonzero_valuation():
    for a in (nov([(2, 1)]), nov([(-3, 4), (0, 1)]), nov([(Q(-1, 2), 2), (Q(1, 2), 5)])):
        b = nov_inv(a, 4)
        assert nov_eq_mod(nov_mul(a, b), nov([(0, 1)]), 4)


def test_inv_of_a_truncated_element_holds_for_every_completion():
    # 1 + t known below t^2: the completion 1 + t + 7t^2 has another inverse
    # from t^2 on, so only 1 - t is certain
    b = nov_inv(nov([(0, 1), (1, 1)], 2), 5)
    assert b == nov([(0, 1), (1, -1)], 2)
    assert nov_eq_mod(nov_mul(nov([(0, 1), (1, 1), (2, 7)]), b), nov([(0, 1)]), 2)
    rng = random.Random(47)
    for _ in range(150):
        v = Q(rng.randint(-4, 4), rng.randint(1, 2))
        terms = [(v, Q(rng.choice((1, -2, 3)), rng.randint(1, 3)))]
        terms += [(v + Q(rng.randint(1, 10), rng.randint(1, 3)), rng.randint(-5, 5)) for _ in range(3)]
        T = v + Q(rng.randint(1, 12), rng.randint(1, 2))
        a = nov(terms, T)
        E = v + Q(rng.randint(0, 16), rng.randint(1, 2))
        b = nov_inv(a, E)
        assert b.truncation == min(E - v, T - 2 * v)
        for _ in range(3):
            # a completion of a: its terms, and any terms at or above T
            extra = [(T + Q(rng.randint(0, 8), rng.randint(1, 3)), rng.randint(-9, 9)) for _ in range(3)]
            c = nov(list(a.terms) + extra)
            # c * b == 1 below t^(tau + v): b agrees with 1/c below its truncation tau
            assert nov_eq_mod(nov_mul(c, nov(b.terms)), nov([(0, 1)]), b.truncation + v)
            assert nov_truncate(nov_inv(c, E), b.truncation) == b


def test_eq_mod_examples():
    assert nov_eq_mod(nov([(0, 1), (10, 1)]), nov([(0, 1)]), 5)
    assert not nov_eq_mod(nov([(0, 1), (1, 1)]), nov([(0, 1)]), 5)
    a = nov([(Q(1, 7), 3)])
    for e in (1, 10, Q(1, 2)):
        assert nov_eq_mod(a, a, e)


def test_valuation_properties():
    rng = random.Random(7)
    checked = 0
    while checked < 1000:
        a = random_novikov(rng)
        b = random_novikov(rng)
        va, vb = nov_val(a), nov_val(b)
        prod = nov_mul(a, b)
        if va is None or vb is None:
            assert nov_val(prod) is None
        else:
            assert nov_val(prod) == va + vb
        s = nov_add(a, b)
        vs = nov_val(s)
        if va is not None and vb is not None:
            if vs is not None:
                assert vs >= min(va, vb)
            if va != vb:
                assert vs == min(va, vb)
        if not a.is_zero():
            inv = nov_inv(a, 6)
            assert nov_eq_mod(nov_mul(a, inv), nov([(0, 1)]), 6)
        checked += 1


def test_ring_axioms_mod_truncation():
    # non-negative valuations: products of elements known mod t^E stay
    # determined mod t^E, so the axioms can be asserted there
    rng = random.Random(8)
    E = Q(9)
    for _ in range(300):
        a = random_novikov(rng, truncation=E, min_num=0)
        b = random_novikov(rng, truncation=E, min_num=0)
        c = random_novikov(rng, truncation=E, min_num=0)
        assert nov_add(a, b) == nov_add(b, a)
        assert nov_mul(a, b) == nov_mul(b, a)
        assert nov_add(nov_add(a, b), c) == nov_add(a, nov_add(b, c))
        assert nov_eq_mod(nov_mul(nov_mul(a, b), c), nov_mul(a, nov_mul(b, c)), E)
        lhs = nov_mul(a, nov_add(b, c))
        rhs = nov_add(nov_mul(a, b), nov_mul(a, c))
        assert nov_eq_mod(lhs, rhs, E)


def test_truncation_propagates_pessimistically():
    a = nov([(0, 1)], truncation=5)
    b = nov([(1, 1), (7, 3)], truncation=10)
    s = nov_add(a, b)
    assert s.truncation == 5
    assert all(e < 5 for e, _ in s.terms)


def test_invariants_enforced():
    with pytest.raises(NovikovError):
        nov_zero().__class__(((Q(0), Q(0)),))  # zero coefficient stored
    with pytest.raises(NovikovError):
        nov_zero().__class__(((Q(1), Q(1)), (Q(0), Q(2))))  # unsorted exponents


def test_text_rendering():
    assert nov_to_text(nov([(Q(1, 3), Q(3, 2)), (2, -1)])) == "3/2*t^{1/3} + -1*t^{2}"
    assert nov_to_text(nov_zero()) == "0"
    assert nov_to_text(nov([(0, 2), (1, -1)])) == "2 + -1*t^{1}"


def test_json_round_trip():
    rng = random.Random(9)
    for _ in range(50):
        a = random_novikov(rng)
        assert nov_from_json(nov_to_json(a)) == a
