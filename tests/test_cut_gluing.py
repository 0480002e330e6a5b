"""Transport as one signed covector sum, against the matrix products.

Every cut glues by a shear ``I + c e_n^T`` with ``c_n = 0``; such shears
commute and compose by adding their ``c``.  ``transport_covector`` therefore
adds one signed covector sum, where ``transport_covector_oracle`` multiplies
one standard-form matrix per crossing; the matrix form lives only in
``tests/helpers.py``.  They are compared on the shipped diagrams, seeded
smooth webs and d=1 lines, on seeded polylines, and on every refusal (a path
that hits the discriminant, a class of the wrong length).

The retired affine wall-crossing mode, z^u -> z^{u + <u,m> gamma}, survives
in ``wall_cross_oracle``; across one cut it is the same shear as transport.
"""

import random
from fractions import Fraction as Q

from helpers import (
    AffineWall,
    box,
    random_novikov,
    random_smooth_web,
    shipped_diagrams,
    transport_covector_oracle,
    wall_cross_oracle,
)
from tropmirror.affine import build_cut_presentation, transport_covector, transport_crossings
from tropmirror.analytic import Monomial, series
from tropmirror.diagram import TropicalDiagram


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _line(rng: random.Random) -> TropicalDiagram:
    xs = sorted({Q(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))})
    rng.shuffle(xs)
    return TropicalDiagram(1, tuple((x,) for x in xs))


def _diagrams(rng: random.Random) -> list[TropicalDiagram]:
    return shipped_diagrams() + [random_smooth_web(rng, 8) for _ in range(5)] + [_line(rng) for _ in range(4)]


def _point(rng: random.Random, lo: int, hi: int, dim: int, floor: Q) -> tuple:
    xs = tuple(Q(rng.randint(997 * lo, 997 * hi), 997) for _ in range(dim))
    return xs + (floor - Q(rng.randint(1, 3000), 991) if rng.random() < 0.7 else Q(rng.randint(-3000, 6000), 991),)


def test_transport_matches_the_matrix_product():
    rng = random.Random(1602)
    counts = {"sheared": 0, "several cuts": 0, "path refused": 0, "class refused": 0}
    for i, diag in enumerate(_diagrams(rng)):
        tau = {diag.edge_name(e): Q(rng.randint(0, 40), 17) for e in range(len(diag.segments))} if i % 2 else None
        pres = build_cut_presentation(diag, tau)
        floor = min(pres.taus)
        xs = [c for v in diag.vertices for c in v]
        lo, hi = int(min(xs)) - 2, int(max(xs)) + 2
        for k in range(10):
            path = [_point(rng, lo, hi, diag.dim, floor) for _ in range(rng.randint(2, 5))]
            if k % 3 == 2:
                # a point over a vertex and under its cuts: the path is refused
                j = rng.randrange(len(path))
                path[j] = rng.choice(diag.vertices) + (floor - 1,)
            if k % 2:
                path.append(path[0])
            g = tuple(rng.randint(-3, 3) for _ in range(pres.n)) + ((1,) if k % 5 == 4 else ())
            want = _outcome(transport_covector_oracle, pres, path, g)
            assert _outcome(transport_covector, pres, path, g) == want, (path, g)
            if isinstance(want[0], type):
                counts["class refused" if want[1] == f"covector dimension mismatch: {g}" else "path refused"] += 1
                continue
            counts["sheared"] += want != g
            counts["several cuts"] += len(transport_crossings(pres, path)) >= 2
    assert min(counts.values()) >= 20, counts


def _one_cut_shear_agrees(rng: random.Random, pres, path) -> None:
    """The affine substitution across the one cut a path crosses, against transport.

    For the cut of edge e crossed with sign s the substitution has
    gamma = (c_e, 0) and normal = s*e_n, so z^u -> z^{u + s u_n (c_e, 0)}.
    """
    (crossing,) = transport_crossings(pres, path)
    diag, n = pres.diagram, pres.n
    cov = diag.covectors[crossing.edge]
    wall = AffineWall(cov + (0,), (0,) * (n - 1) + (crossing.sign,))
    terms = []
    for _ in range(rng.randint(1, 6)):
        coeff = random_novikov(rng)
        if not coeff.is_zero():
            terms.append(Monomial(coeff, tuple(rng.randint(-4, 4) for _ in range(n))))
    a = series(terms, "V_minus", box(*[(0, 1)] * n), 10)
    moved = [Monomial(m.coeff, transport_covector(pres, path, m.expo)) for m in a.terms]
    assert wall_cross_oracle(a, wall, 10, a.box) == series(moved, "V_plus", a.box, 10), (path, a)


def test_the_affine_wall_substitution_is_the_transport_shear_on_the_demo_line():
    rng = random.Random(1603)
    pres = build_cut_presentation(TropicalDiagram(1, ((Q(0),),)))
    for path in (((1, -1), (-1, -1)), ((-1, -1), (1, -1))):
        for _ in range(20):
            _one_cut_shear_agrees(rng, pres, path)


def test_the_affine_wall_substitution_is_the_transport_shear_on_seeded_webs():
    # a short path at t = -1 through a point inside one edge, across that edge only
    rng = random.Random(1604)
    crossed = 0
    for _ in range(12):
        diag = random_smooth_web(rng, 8)
        pres = build_cut_presentation(diag)
        for anchor, d, end in diag.segments:
            s = (end if end is not None else 3) * Q(rng.randint(1, 9), 10)
            eps = Q(rng.choice((1, -1)), 10**6)
            p = (anchor[0] + s * d[0], anchor[1] + s * d[1])
            path = ((p[0] + eps * d[1], p[1] - eps * d[0], Q(-1)), (p[0] - eps * d[1], p[1] + eps * d[0], Q(-1)))
            _one_cut_shear_agrees(rng, pres, path)
            crossed += 1
    assert crossed >= 100
