import itertools
import random
import re
from fractions import Fraction as Q

import pytest

from helpers import (
    ConeKind,
    IntegralCone,
    apply_matrix,
    box,
    cone_contains,
    intersect_shifted_cones,
    lattice_points,
    lattice_triangle_area,
    random_unimodular,
)
from tropmirror.lattice import (
    DIGITS,
    Box,
    LatticeError,
    convex_hull,
    malformed,
    primitive,
    read_int,
    read_rational,
)


def test_convex_hull_corners_counterclockwise():
    square = [(2, 2), (0, 0), (1, 0), (2, 0), (1, 1), (0, 2), (2, 1), (0, 0)]
    # edge midpoints and the centre are not corners; the repeat is ignored
    assert convex_hull(square) == [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert convex_hull([(3, 3), (1, 1), (2, 2)]) == [(1, 1), (3, 3)]
    assert convex_hull([(5, 0)]) == [(5, 0)]


def test_primitive_examples():
    assert primitive((2, -4)) == (1, -2)
    assert primitive((0, 7)) == (0, 1)
    assert primitive((-3, -3)) == (-1, -1)


def test_primitive_zero_rejected():
    with pytest.raises(LatticeError, match="primitive"):
        primitive((0, 0))


def test_primitive_idempotent():
    rng = random.Random(1)
    for _ in range(200):
        v = (rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20))
        if all(c == 0 for c in v):
            continue
        p = primitive(v)
        assert primitive(p) == p


def test_triangle_area_examples():
    assert lattice_triangle_area((0, 0), (1, 0), (0, 1)) == Q(1, 2)
    assert lattice_triangle_area((0, 0), (2, 0), (0, 2)) == 2
    assert lattice_triangle_area((0, 0), (1, 1), (2, 2)) == 0


def test_triangle_area_unimodular_invariance():
    rng = random.Random(2)
    for _ in range(200):
        tri = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
        m = random_unimodular(rng)
        t = (rng.randint(-7, 7), rng.randint(-7, 7))
        moved = [
            tuple(a + b for a, b in zip(apply_matrix(m, p), t)) for p in tri
        ]
        assert lattice_triangle_area(*tri) == lattice_triangle_area(*moved)


def test_cone_contains_examples():
    c = IntegralCone((0, 0), ((1, 0), (0, 1)))
    assert cone_contains(c, (3, 2))
    assert not cone_contains(c, (-1, 0))
    c2 = IntegralCone((1, 0), ((-1, 0), (-1, 1)))
    assert cone_contains(c2, (0, 0))


def test_cone_contains_matches_enumeration():
    # brute-force combinations a*g1 + b*g2 with coefficients up to 5
    c = IntegralCone((1, 0), ((-1, 0), (-1, 1)))
    reachable = set()
    for a, b in itertools.product(range(6), repeat=2):
        reachable.add((1 - a - b, b))
    for x in range(-5, 6):
        for y in range(0, 6):
            p = (x, y)
            if p in reachable:
                assert cone_contains(c, p)


def test_half_and_full_plane_membership():
    hp = IntegralCone((0, 0), ((1, 0), (0, 1)), ConeKind.HALF_PLANE)
    assert cone_contains(hp, (5, 0))  # boundary line included
    assert cone_contains(hp, (-7, 3))
    assert not cone_contains(hp, (0, -1))
    fp = IntegralCone((2, 2), (), ConeKind.FULL_PLANE)
    assert cone_contains(fp, (-100, 100))


def test_cone_construction_guards():
    with pytest.raises(LatticeError):
        IntegralCone((0, 0), ((2, 0),))  # non-primitive generator
    with pytest.raises(LatticeError):
        IntegralCone((0, 0), ((1, 0), (-1, 0)))  # dependent strict generators
    with pytest.raises(LatticeError):
        IntegralCone((0, 0), ((1, 0), (0, 1), (1, 1)))  # too many generators


def test_intersect_shifted_cones_unit_triangle():
    cones = [
        IntegralCone((0, 0), ((1, 0), (0, 1))),
        IntegralCone((1, 0), ((-1, 0), (-1, 1))),
        IntegralCone((0, 1), ((0, -1), (1, -1))),
    ]
    found = intersect_shifted_cones(cones, box((-3, 3), (-3, 3)))
    assert found == {(0, 0), (1, 0), (0, 1)}


def test_intersect_full_plane_and_empty():
    fp = IntegralCone((0, 0), (), ConeKind.FULL_PLANE)
    assert len(intersect_shifted_cones([fp], box((0, 1), (0, 1)))) == 4
    a = IntegralCone((0, 0), ((1, 0), (0, 1)))
    b = IntegralCone((-10, -10), ((-1, 0), (0, -1)))
    assert intersect_shifted_cones([a, b], box((-5, 5), (-5, 5))) == set()
    with pytest.raises(LatticeError, match="empty"):
        intersect_shifted_cones([], box((0, 1), (0, 1)))


def test_intersection_agrees_with_per_point_scan():
    rng = random.Random(3)
    search = box((-5, 5), (-5, 5))
    for _ in range(20):
        cones = []
        for _ in range(rng.randint(1, 3)):
            apex = (rng.randint(-2, 2), rng.randint(-2, 2))
            g1 = primitive((rng.randint(-3, 3), rng.randint(-3, 3))) if rng.random() < 2 else None
            while True:
                try:
                    g1 = primitive((rng.randint(-3, 3), rng.randint(-3, 3)))
                    g2 = primitive((rng.randint(-3, 3), rng.randint(-3, 3)))
                    cones.append(IntegralCone(apex, (g1, g2)))
                    break
                except LatticeError:
                    continue
        result = intersect_shifted_cones(cones, search)
        scan = {
            p
            for p in lattice_points(search)
            if all(cone_contains(c, p) for c in cones)
        }
        assert result == scan


def test_box_validation_and_lattice_points():
    with pytest.raises(LatticeError):
        Box(((Q(1), Q(0)),))
    b = box((0, 1), (Q(-1, 2), Q(3, 2)))
    assert b.dim == 2
    assert set(lattice_points(b)) == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize(
    "value, expected", [(3, 3), (-7, -7), (2.0, 2), (Q(4, 2), 2), ("12", 12), (" -4 ", -4), ("1_000", 1000)]
)
def test_read_int_accepts_what_int_reads_without_truncating(value, expected):
    assert read_int(value) == expected and type(read_int(value)) is int


@pytest.mark.parametrize("value", [1.9, -0.5, Q(1, 2), float("inf"), float("nan"), True, False])
def test_read_int_refuses_bools_and_fractional_or_non_finite_floats(value):
    with pytest.raises(ValueError, match=f"^expected an integer, got {re.escape(repr(value))}$"):
        read_int(value)


@pytest.mark.parametrize("value, expected", [("1/2", Q(1, 2)), (3, Q(3)), (0.5, Q(1, 2)), ("-3.25e-2", Q(-13, 400))])
def test_read_rational_reads_what_fraction_reads(value, expected):
    assert read_rational(value) == expected


@pytest.mark.parametrize("value", [True, False])
def test_read_rational_refuses_bools(value):
    with pytest.raises(ValueError, match=f"^expected a rational number, got {value!r}$"):
        read_rational(value)


def test_read_rational_refuses_numbers_just_over_the_digit_limit():
    assert read_rational(f"9e{DIGITS - 1}") == 9 * 10 ** (DIGITS - 1)
    assert read_rational(f"1e-{DIGITS - 1}") == Q(1, 10 ** (DIGITS - 1))
    assert read_rational("7" * DIGITS) == int("7" * DIGITS)
    over = [f"1e{DIGITS}", f"1e-{DIGITS}", "1e999999", "-2.5E-999999", f"{'7' * DIGITS}.5"]
    for text in over:
        with pytest.raises(ValueError, match=f"is over the limit of {DIGITS} digits"):
            read_rational(text)


def test_malformed_names_the_kind_and_keeps_other_errors():
    with pytest.raises(LatticeError, match=r"^malformed test JSON: Fraction\(1, 0\)$"):
        with malformed("malformed test JSON", LatticeError):
            read_rational("1/0")
    with pytest.raises(LatticeError, match='^malformed test JSON: missing key "x"$'):
        with malformed("malformed test JSON", LatticeError):
            {}["x"]
    # a guard inside another names the part, and the outer one the file
    with pytest.raises(LatticeError, match='^malformed test JSON: entry 2: missing key "x"$'):
        with malformed("malformed test JSON", LatticeError):
            with malformed("entry 2"):
                {}["x"]
    with pytest.raises(IndexError):
        with malformed("malformed test JSON", LatticeError):
            [][0]
