"""Toric Calabi-Yau webs from GLSM charge matrices.

A charge matrix is k integer rows of length n+k, each summing to zero (the
special-unitary condition).  Its integer kernel has rank n; because the
all-ones vector lies in the kernel, the n+k columns of a kernel basis can be
normalized by a unimodular change of coordinates to have last coordinate 1,
yielding n+k lattice points in the plane (n = 3 throughout).  The all-ones
vector is an integer combination of the basis, so this normalization holds
by construction and ``kernel_points`` does not check it.  Lifting the
points by user-supplied heights and taking the lower convex hull
(``tropmirror.hull``) produces a regular subdivision; generic heights make it
a triangulation.  Dualizing (one web vertex per cell at minus the lifting
gradient, edges orthogonal to the shared cell sides, rays opposite the
outward boundary normals, all read off each cell's counterclockwise ring,
``hull.cell_ring``) gives the tropical web.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .diagram import TropicalDiagram
from .hull import ChargeError, RegularSubdivision, SubdivisionCell, cell_ring, regular_subdivision
from .lattice import (
    Vec,
    as_int,
    as_point,
    as_sequence,
    common_denominator,
    dot,
    malformed,
    primitive,
    read_int,
    read_list,
    read_object,
)
from .record import frozen


@frozen
class ChargeMatrix:
    rows: tuple[tuple[int, ...], ...]
    width: int  # n + k; explicit so the empty matrix (k = 0) keeps its size

    def __post_init__(self):
        width = as_int(self.width, "width", ChargeError)
        rows = tuple(as_point(r, width, "charge row", ChargeError, read_int) for r in self.rows)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "rows", rows)
        for r in rows:
            if sum(r) != 0:
                raise ChargeError(f"charge row {r} does not sum to zero")


def integer_kernel_basis(rows: Sequence[Sequence[int]], width: int) -> list[Vec]:
    """Basis of the integer kernel lattice {x : A x = 0}, by column reduction.

    Column operations (tracked in a unimodular matrix) bring A to column
    echelon form; the transform columns over the zero columns are a basis of
    the saturated kernel.
    """
    k = len(rows)
    # column j of A stacked on column j of the transform, one list per column.
    # No entry is read as an integer here: both callers pass ints, the rows
    # that ChargeMatrix has read and kernel_points' theta, which is integer
    # cross products over an exact floor division
    cols = [[r[j] for r in rows] + [int(i == j) for i in range(width)] for j in range(width)]
    col = 0
    for row in range(k):
        while True:
            nz = [j for j in range(col, width) if cols[j][row] != 0]
            if not nz:
                break
            if len(nz) == 1:
                cols[col], cols[nz[0]] = cols[nz[0]], cols[col]
                col += 1
                break
            nz.sort(key=lambda j: abs(cols[j][row]))
            piv, other = cols[nz[0]], cols[nz[1]]
            q = other[row] // piv[row]
            cols[nz[1]] = [x - q * y for x, y in zip(other, piv)]
    if col < k:
        raise ChargeError("charge matrix is rank-deficient")
    return [tuple(c[k:]) for c in cols[col:]]


def _cross3(a: Sequence[int], b: Sequence[int]) -> Vec:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def kernel_points(q: ChargeMatrix) -> list[Vec]:
    """The n+k lattice points of the dual polygon, in charge-coordinate order.

    A 3x3 matrix with rows m0, m1, m2 has the inverse with columns
    m1 x m2, m2 x m0, m0 x m1 over its determinant (the adjugate), so theta
    and W^-1 below are integer cross products and one exact division.
    """
    basis = integer_kernel_basis(q.rows, q.width)
    n = len(basis)
    if n != 3:
        raise ChargeError(f"charge matrix has corank {n}, need 3")
    cols = list(zip(*basis))  # charge column i in kernel coordinates
    # theta with <theta, col_i> = 1 for every i: the rows sum to zero, so the
    # all-ones vector lies in the kernel, and the basis spans the saturated
    # kernel, so it is B t for an integer t.  The columns have rank 3, so
    # theta = t is M^-1 (1, 1, 1) for the first invertible minor M, taken
    # greedily, and each division by det below is exact.  No column is zero,
    # as its pairing with t is the all-ones vector's entry there, 1
    m0 = cols[0]
    m1 = next(v for v in cols if any(_cross3(m0, v)))
    m2 = next(v for v in cols if dot(_cross3(m0, m1), v) != 0)
    adj = (_cross3(m1, m2), _cross3(m2, m0), _cross3(m0, m1))
    det = dot(m0, adj[0])
    theta = [sum(s) // det for s in zip(*adj)]
    # unimodular W = (c | k1 | k2) with theta * W = (1, 0, 0): <theta, c> = 1
    # and k1, k2 span the kernel of theta, so W^-1 has theta as its first row
    # and the new last coordinate of each point is <theta, col_i> = 1.  Its
    # other rows are k2 x c and c x k1 over det W = +-1
    c = _extended_gcd_vector(theta)
    k1, k2 = integer_kernel_basis([theta], n)
    sign = dot(c, _cross3(k1, k2))  # det W = +-1 is its own inverse
    r1, r2 = _cross3(k2, c), _cross3(c, k1)
    # no last coordinate needs checking: <theta, v> = (B t)_v = 1 for every column v
    points = [(sign * dot(r1, v), sign * dot(r2, v)) for v in cols]
    if len(set(points)) != len(points):
        raise ChargeError("charge data produces repeated lattice points")
    return points


def _extended_gcd_vector(theta: Sequence[int]) -> list[int]:
    """An integer vector c with <theta, c> = gcd(theta).

    ``kernel_points`` passes a theta with <theta, v> = 1 for some integer v,
    so gcd(theta) divides 1 and c is a solution of <theta, c> = 1.
    """
    g = 0
    gvec = [0] * len(theta)
    for i, t in enumerate(theta):
        if t:
            # at the first nonzero t, g = 0 gives x = 0 and y = sign(t)
            g, x, y = _egcd(g, t)
            gvec = [x * v for v in gvec]
            gvec[i] += y
    return gvec


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    g, x, y = _egcd(b, a % b)
    return (g, y, x - (a // b) * y)


@frozen
class ChargeWeb:
    diagram: TropicalDiagram
    subdivision: RegularSubdivision  # its points are the kernel points


def web_from_subdivision(sub: RegularSubdivision, allow_weighted: bool = False) -> TropicalDiagram:
    """The web dual to a subdivision: a vertex per cell, an edge per shared side, a ray per boundary side.

    Each cell's ring (``cell_ring``) runs counterclockwise, so the side
    u -> v has its cell on the left, and a side of one cell gives the ray
    primitive((-dy, dx)) for (dx, dy) = v - u, opposite its outward normal.
    """
    cells = sub.cells
    # distinct lower faces have distinct gradients, so the vertices are distinct
    vertices = [(-gx, -gy) for gx, gy in (c.gradient for c in cells)]
    sides: dict[tuple[int, int], list] = {}  # (min, max) -> [first owner's ray, owners...]
    for ci, c in enumerate(cells):
        ring = cell_ring(sub.points, c.indices)
        for u, v in zip(ring, ring[1:] + ring[:1]):
            side = (u, v) if u < v else (v, u)
            owners = sides.get(side)
            if owners is not None:
                owners.append(ci)
                continue
            (x0, y0), (x1, y1) = sub.points[u], sub.points[v]
            length = math.gcd(x1 - x0, y1 - y0)
            if not allow_weighted and length != 1:
                # a long dual edge means a weight > 1 web edge
                raise ChargeError(
                    f"subdivision side {(x0, y0)}-{(x1, y1)} has lattice length {length} (a web edge of weight {length})"
                )
            sides[side] = [(y0 - y1, x1 - x0), ci]
    edges = []
    rays = []
    for _, (ray, *owners) in sorted(sides.items()):
        if len(owners) == 2:
            edges.append(tuple(owners))
        elif len(owners) == 1:
            rays.append((owners[0], primitive(ray)))
        else:
            raise ChargeError("subdivision edge shared by more than two cells")
    return TropicalDiagram(2, tuple(vertices), tuple(edges), tuple(rays))


def build_web(q: ChargeMatrix, heights: Sequence, allow_singular: bool = False) -> ChargeWeb:
    """Full pipeline: charges -> kernel points -> regular subdivision -> web.

    The web keeps the subdivision: its points are the kernel points, and
    ``is_simplicial`` says whether it is a triangulation.
    """
    sub = regular_subdivision(kernel_points(q), heights)
    if not allow_singular and not sub.is_simplicial():
        raise ChargeError("degenerate Kähler parameters")
    return ChargeWeb(web_from_subdivision(sub, allow_weighted=allow_singular), sub)


# columns or rows of a charge file; the web takes time and memory about
# quadratic in the columns.  At 990 columns (P^2 of degree 43) `web --charges`
# took 1.6 s with 2-digit height denominators and 6.2 s with a 3,445-digit
# lcm, near the DIGITS bound on it (in-process, min of 3, shared Xeon host)
MAX_CHARGE_SIZE = 1000


def charges_from_json(data) -> tuple[ChargeMatrix, tuple[Fraction, ...]]:
    """The charge matrix and heights of a charge file.

    A file with more than MAX_CHARGE_SIZE columns or rows is refused before
    any entry is read, and heights over a common denominator of more than
    DIGITS digits before any row is read (``regular_subdivision`` keeps the
    same check for callers that skip this reader).
    """
    with malformed("malformed charge JSON", ChargeError):
        charges = read_list(read_object(data, 'with "charges" and "heights"')["charges"], 'rows in "charges"')
        heights = as_sequence(data["heights"], "heights", ChargeError)
        width = len(as_sequence(charges[0], "charge row", ChargeError) if charges else heights)
        if max(width, len(charges)) > MAX_CHARGE_SIZE:
            shape = f"{len(charges)} x {width}"
            raise ValueError(f"charge matrix is {shape}, over the limit of {MAX_CHARGE_SIZE} rows or columns")
        heights = as_point(heights, None, "heights", ChargeError)
    common_denominator(heights, "heights", ChargeError)
    with malformed("malformed charge JSON", ChargeError):
        rows = tuple(as_point(r, None, "charge row", ChargeError, read_int) for r in charges)
    return ChargeMatrix(rows, width), heights
