"""A diagram's vertex table against the code it replaced.

``TropicalDiagram.scaled`` holds the vertices as integer points over one
common denominator; the duplicate-vertex check, ``segments`` and the gluing
read it.  The code it replaced compared (numerator, denominator) pairs,
cleared each edge's denominators with ``primitive_direction`` and took the
gluing's own lcm; it is the oracle in ``tests/helpers.py``.  Both are run on
the shipped diagrams, seeded smooth webs, the ladder's charge webs, lines,
seeded broken inputs, vertices written as different spellings of one number
and vertices 1/(10^14+31) apart, and must agree on every result and every
refusal message.
"""

import random
from fractions import Fraction as Q
from types import SimpleNamespace

from helpers import (
    charge_ladder_webs,
    diagram_checks_oracle,
    glue_oracle,
    random_smooth_web,
    segments_oracle,
    shipped_diagrams,
)
from test_faces import CROSSING
from tropmirror.diagram import DiagramError, TropicalDiagram, diagram_from_json

PRIME = 10**14 + 31  # the denominator of the benchmark's height perturbations


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DiagramError as exc:
        return f"DiagramError: {exc}"


def _build(dim, vertices, edges, rays):
    """The new constructor and the old checks agree; returns the diagram or the refusal."""
    got = _outcome(TropicalDiagram, dim, vertices, edges, rays)
    want = _outcome(diagram_checks_oracle, SimpleNamespace(dim=dim, vertices=vertices, edges=edges, rays=rays))
    assert (got if isinstance(got, str) else None) == want, (dim, vertices, edges, rays)
    return got


def _coordinate(rng: random.Random):
    """A rational in one of several spellings, often equal to another draw."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(("1/2", "2/4", 0.5, Q(1, 2), "-3/6", -0.5))
    if kind == 1:
        return Q(rng.randint(-3, 3), PRIME)
    if kind == 2:
        return rng.randint(-2, 2)
    return Q(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))


def _raw_input(rng: random.Random):
    """A seeded constructor input; many break one of its checks."""
    dim = rng.choice((1, 2, 2, 2, 2, 0, 3))
    n = rng.randint(0, 5)
    vertices = [tuple(_coordinate(rng) for _ in range(dim if rng.random() < 0.95 else dim + 1)) for _ in range(n)]
    edges = []
    rays = []
    if dim != 1 or rng.random() < 0.1:
        for _ in range(rng.randint(0, n + 1)):
            edges.append((rng.randint(-1, n), rng.randint(-1, n)) if rng.random() < 0.1 else
                         tuple(rng.sample(range(n), 2)) if n > 1 else (0, 0))
        for _ in range(rng.randint(0, 4)):
            d = tuple(rng.randint(-2, 2) for _ in range(dim if rng.random() < 0.95 else 3))
            rays.append((rng.randint(0, n) if n else 0, d))
    return dim, vertices, edges, rays


def _assert_same_tables(diag: TropicalDiagram):
    assert diag.segments == segments_oracle(diag)
    glued = _outcome(lambda d: d.glued, diag)
    assert glued == _outcome(glue_oracle, diag)
    return glued


def test_the_constructor_refuses_like_the_old_checks():
    rng = random.Random(18)
    messages = set()
    built = 0
    for _ in range(1500):
        got = _build(*_raw_input(rng))
        if isinstance(got, str):
            messages.add(got)
        else:
            built += 1
            _assert_same_tables(got)
    assert built >= 200
    assert messages == {
        f"DiagramError: {text}"
        for text in (
            "dimension must be 1 or 2",
            "vertex dimension mismatch",
            "two vertices coincide",
            "d=1 diagrams carry no edges or rays",
            "edge endpoint out of range",
            "edge endpoints must be distinct",
            "ray vertex out of range",
            "ray direction dimension mismatch",
            "ray direction is zero",
        )
    }


def test_spellings_of_one_number_coincide_and_close_vertices_do_not():
    tiny = Q(1, PRIME)
    for spelling in ("2/4", 0.5, Q(1, 2), "0.50"):
        assert _build(2, [("1/2", 0), (spelling, "0/7")], [], []) == "DiagramError: two vertices coincide"
        assert _build(1, [("1/2",), (spelling,)], [], []) == "DiagramError: two vertices coincide"
    assert _build(2, [(tiny, 0), (f"2/{2 * PRIME}", 0)], [], []) == "DiagramError: two vertices coincide"
    # the conifold with a bounded edge of lattice length 1/(10^14+31), placed off the origin
    for x, y in ((0, 0), ("1/2", "-1/3"), (tiny, -tiny)):
        a = (Q(x), Q(y))
        b = (a[0] + tiny, a[1] + tiny)
        diag = _build(2, [a, b], [(0, 1)], [(0, (-1, 0)), (0, (0, -1)), (1, (1, 0)), (1, (0, 1))])
        dual, heights = _assert_same_tables(diag)
        assert diag.segments[0][1:] == ((1, 1), tiny)
        assert 0 in heights and len(dual.lattice_points) == 4
    line = _build(1, [(tiny,), (0,), (-tiny,), ("1/2",)], [], [])
    _assert_same_tables(line)


def test_webs_glue_like_the_oracle():
    webs = shipped_diagrams() + charge_ladder_webs(1) + charge_ladder_webs(2)
    rng = random.Random(181)
    webs += [random_smooth_web(rng) for _ in range(40)]
    lines = [
        TropicalDiagram(1, tuple((Q(rng.randint(-40, 40), rng.choice((1, 3, PRIME))),) for _ in range(k)))
        for k in range(1, 8)
    ]
    for diag in webs + lines:
        assert not isinstance(_assert_same_tables(diag), str)


def test_the_gluing_refuses_like_the_oracle():
    broken = [diagram_from_json(data) for data, _ in CROSSING]
    broken += [
        TropicalDiagram(2, ()),
        TropicalDiagram(1, ()),
        TropicalDiagram(2, ((Q(0), Q(0)),), (), ((0, (1, 0)), (0, (0, 1)))),
        TropicalDiagram(2, ((Q(0), Q(0)), (Q(1, 2), Q(0))), (), ((0, (1, 0)), (0, (0, 1)), (0, (-1, -1)))),
    ]
    messages = [_assert_same_tables(diag) for diag in broken]
    assert messages == [f"DiagramError: {message}" for _, message in CROSSING] + [
        "DiagramError: empty diagram has no vertices",
        "DiagramError: empty diagram has no vertices",
        "DiagramError: diagram fails axioms: trivalent, balanced",
        "DiagramError: diagram fails axioms: trivalent",
    ]
