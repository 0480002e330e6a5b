"""Seeded inputs, operations and output checks for the benchmark workloads.

A workload is a fixed list of operations.  An operation either runs one CLI
command in-process through ``tropmirror.cli.run`` with stdout captured, or
calls one public function of ``tropmirror``.  It returns its output, which the
benchmark digests and checks.  A check returns ``None`` or a witness naming
the first field that is wrong.  Checks use the benchmark's own arithmetic; the
one exception is the transport round trip, which runs the program a second
time, because the invariant being checked is about the program's transport.

The seed changes only values (height perturbations, query points, signs of
series coefficients), never the number of operations or the size of their
numbers: denominators and the magnitudes of coefficients are fixed per slot,
so that runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DIAGRAMS = os.path.join(ROOT, "diagrams")

PRIME = 2**31 - 1  # denominator of generic query coordinates
PERTURB_DEN = 10**14 + 31  # a prime: heights get a perturbation of about 1e-8
PERTURB_NUM = (5 * 10**5, 10**6)  # range of its numerator's magnitude


class Program:
    """A fresh import of the ``tropmirror`` package from ``src/``.

    Importing again after dropping every ``tropmirror`` module from
    ``sys.modules`` makes each set-up pay the program's import time.
    """

    def __init__(self):
        for name in [n for n in sys.modules if n == "tropmirror" or n.startswith("tropmirror.")]:
            del sys.modules[name]
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        self.tm = importlib.import_module("tropmirror")
        if not os.path.abspath(self.tm.__file__).startswith(SRC + os.sep):
            raise ImportError(f"tropmirror was imported from {self.tm.__file__}, not {SRC}")
        self.cli = importlib.import_module("tropmirror.cli")
        self.analytic = importlib.import_module("tropmirror.analytic")
        self.lattice = importlib.import_module("tropmirror.lattice")

    def run_cli(self, argv: list[str]) -> "CliResult":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.run(argv)
        return CliResult(code, out.getvalue(), err.getvalue())


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    id: str  # stable name; golden digests are keyed by it
    kind: str  # per-command time bucket: web, dual, mirror, transport, chamber, ...
    input: str  # what the op was given, for witnesses
    run: Callable[[], object]
    serialize: Callable[[object], bytes]
    check: Callable[[object], Optional[str]]
    smoke: bool = False  # part of the smallest input set


# --- CLI operations ----------------------------------------------------------


def cli_op(prog: Program, op_id: str, kind: str, argv: list[str], check, smoke=False) -> Op:
    """An op running ``tropmirror <argv>``; ``check`` sees the stdout text."""

    def checked(res: CliResult) -> Optional[str]:
        if res.code != 0:
            return f"exit code {res.code}: {res.stderr.strip()[:200]}"
        return check(res.stdout)

    return Op(
        op_id,
        kind,
        " ".join(argv),
        lambda: prog.run_cli(argv),
        lambda res: f"{res.code}\n{res.stdout}".encode(),
        checked,
        smoke,
    )


def _json_check(check):
    def parse_then(text: str) -> Optional[str]:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        return check(data)

    return parse_then


def _expect(field: str, got, want) -> Optional[str]:
    return None if got == want else f"{field}: expected {want!r}, got {got!r}"


def _first(*witnesses) -> Optional[str]:
    return next((w for w in witnesses if w is not None), None)


def _hull_area2(points) -> int:
    """Twice the area of the convex hull of integer points (monotone chain)."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = half(pts)[:-1] + half(pts[::-1])[:-1]
    return abs(sum(cross((0, 0), hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))))


def check_web(npoints: int, cells: Optional[int], boundary: Optional[int]):
    """Full unimodular triangulation: one cell per web vertex, 2*area cells."""

    def check(out) -> Optional[str]:
        pts = [tuple(p) for p in out["points"]]
        return _first(
            _expect("simplicial", out["simplicial"], True),
            _expect("len(points)", len(pts), npoints),
            None if cells is None else _expect("len(cells)", len(out["cells"]), cells),
            _expect("len(cells) vs 2*hull area", len(out["cells"]), _hull_area2(pts)),
            _expect("len(vertices) vs len(cells)", len(out["vertices"]), len(out["cells"])),
            None if boundary is None else _expect("len(rays)", len(out["rays"]), boundary),
        )

    return _json_check(check)


def check_dual(nfaces: int, ncells: Optional[int]):
    def check(out) -> Optional[str]:
        return _first(
            _expect("embedding_matches_subdivision", out["embedding_matches_subdivision"], True),
            _expect("smooth", out["smooth"], True),
            _expect("len(lattice_points)", len(out["lattice_points"]), nfaces),
            None if ncells is None else _expect("len(triangles)", len(out["triangles"]), ncells),
        )

    return _json_check(check)


def check_dual_svg(nvertices: int, nfaces: int):
    def check(text: str) -> Optional[str]:
        return _first(
            _expect("svg head", text[:4], "<svg"),
            _expect("svg tail", text[-7:], "</svg>\n"),
            _expect("circles", text.count("<circle "), nvertices),
            _expect("dual vertex comments", text.count("<!-- dual vertex "), nfaces),
        )

    return check


def check_mirror(nterms: int, normalized: bool):
    """g = sum t^f(alpha) u^alpha: one plain power of t per dual vertex.

    Normalized, the root is the origin with coefficient exactly 1; raw, the
    exponents are shifted so that their minimum is 0.
    """

    def check(out) -> Optional[str]:
        terms = out["superpotential"]
        w = _expect("len(superpotential)", len(terms), nterms)
        if w:
            return w
        exps = []
        for term in terms:
            coeff = term["coefficient"]
            if len(coeff) != 1 or coeff[0]["coeff"] != "1":
                return f"superpotential[{term['vertex']}]: expected a plain power of t, got {coeff}"
            e = Q(coeff[0]["exp"])
            if e < 0:
                return f"superpotential[{term['vertex']}]: negative exponent {e}"
            exps.append(e)
        if normalized:
            root = [t for t in terms if t["vertex"] == out["root"]]
            return _first(
                _expect("root", out["root"], [0] * (out["n"] - 1)),
                _expect("root coefficient", root[0]["coefficient"] if root else None,
                        [{"coeff": "1", "exp": "0"}]),
            )
        return _expect("min exponent", min(exps), 0)

    return _json_check(check)


def _faces_of_diagram(data) -> int:
    if data["dim"] == 1:
        return len(data["vertices"]) + 1
    return len(data["edges"]) + len(data["rays"]) - len(data["vertices"]) + 1


# --- input generators -----------------------------------------------------------


def p2_points(k: int):
    """Local P^2 of degree k: the lattice triangle of side k."""
    return [(x, y) for x in range(k + 1) for y in range(k + 1 - x)]


def rect_points(w: int, h: int):
    return [(x, y) for x in range(w + 1) for y in range(h + 1)]


def charge_data(points, quadratic, rng: random.Random) -> dict:
    """Charge rows and heights for a polygon containing the corner (0,0), (1,0), (0,1).

    Each row is the affine relation (1-x-y, x, y, -1) of one further point
    (x, y) against the corner.  Because the corner is a unimodular triangle,
    every lattice point is an integral affine combination of it, so the
    kernel of the rows is the saturated lattice of integral affine functions
    on the points and ``kernel_points`` gives the polygon back up to
    GL(2,Z) and translation.

    Heights are ``quadratic`` plus a seeded perturbation of about 1e-8, far
    too small to change the lower hull: every seed gets the same
    triangulation, with heights of the same size.
    """
    corner = [(0, 0), (1, 0), (0, 1)]
    order = corner + sorted(p for p in points if p not in corner)
    index = {p: i for i, p in enumerate(order)}
    rows = []
    for x, y in order[3:]:
        row = [0] * len(order)
        row[0], row[1], row[2] = 1 - x - y, x, y
        row[index[(x, y)]] = -1
        rows.append(row)
    eps = {p: _signed(rng, Q(rng.randint(*PERTURB_NUM), PERTURB_DEN)) for p in order}
    heights = [str(quadratic(x, y) + eps[(x, y)]) for x, y in order]
    return {"charges": rows, "heights": heights}


def _write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
    return path


def _generic(rng: random.Random, lo, hi) -> Q:
    """A rational in [lo, hi] with the prime denominator PRIME."""
    return Q(rng.randint(math.floor(lo * PRIME), math.ceil(hi * PRIME)), PRIME)


def _signed(rng: random.Random, magnitude: Q) -> Q:
    """``magnitude`` with a seeded sign: the seed never changes a number's size."""
    return magnitude if rng.random() < 0.5 else -magnitude


def _slot_coeff(k: int) -> Q:
    """The fixed magnitude of series coefficient number ``k``."""
    return Q(SLOT_NUMS[k % len(SLOT_NUMS)], SLOT_DENS[k % len(SLOT_DENS)])


SLOT_NUMS = (1, 2, 3, 5, 7, 4, 9)
SLOT_DENS = (1, 2, 3, 4, 5)  # coprime lengths: 35 distinct slots


P2_DEGREES = range(2, 6)
RECTANGLES = [(4, 1), (3, 2), (4, 2), (1, 4), (2, 3)]  # as in tests/test_fuzz.py


def p2_height(x: int, y: int) -> Q:
    return Q(x * x + x * y + y * y)


# x^2 + y^2 makes every unit square cocircular.  The xy term splits each
# along the same diagonal: it adds SQUARE_TILT to a square's alternating sum
# of heights, more than the perturbation can take away (4 * PERTURB_NUM[1]).
SQUARE_TILT = Q(5 * 10**6, PERTURB_DEN)


def rect_height(x: int, y: int) -> Q:
    return x * x + y * y + SQUARE_TILT * x * y


def _charge_family():
    """(name, points, quadratic, expected cells, boundary points)."""
    for k in P2_DEGREES:
        yield f"p2-{k}", p2_points(k), p2_height, k * k, 3 * k
    for w, h in RECTANGLES:
        yield f"rect-{w}x{h}", rect_points(w, h), rect_height, 2 * w * h, 2 * (w + h)


# --- build-ladder ------------------------------------------------------------------


def build_ladder(prog: Program, rng: random.Random, work: str) -> list[Op]:
    ops: list[Op] = []
    for name, pts, quad, cells, boundary in _charge_family():
        path = _write_json(os.path.join(work, f"{name}.json"), charge_data(pts, quad, rng))
        ops += _charge_ops(prog, name, path, len(pts), cells, boundary, smoke=name == "p2-2")
    for fname in sorted(os.listdir(DIAGRAMS)):
        path = os.path.join(DIAGRAMS, fname)
        name = "diagram-" + fname[: -len(".json")]
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if "charges" in data:
            ops += _charge_ops(prog, name, path, len(data["heights"]), None, None, smoke=False)
            continue
        nfaces = _faces_of_diagram(data)
        ncells = len(data["vertices"]) if data["dim"] == 2 else 0
        smoke = name == "diagram-c3"
        ops.append(cli_op(prog, f"dual:{name}", "dual", ["dual", path],
                          check_dual(nfaces, ncells), smoke))
        ops.append(cli_op(prog, f"mirror:{name}", "mirror", ["mirror", path],
                          check_mirror(nfaces, True), smoke))
    return ops


def _charge_ops(prog, name, path, npoints, cells, boundary, smoke) -> list[Op]:
    # every point is used by the full unimodular triangulation, so the dual
    # has one vertex per point and the web one vertex per cell
    return [
        cli_op(prog, f"web:{name}", "web", ["web", "--charges", path],
               check_web(npoints, cells, boundary), smoke),
        cli_op(prog, f"dual:{name}", "dual", ["dual", path], check_dual(npoints, cells), smoke),
        cli_op(prog, f"mirror:{name}", "mirror", ["mirror", path], check_mirror(npoints, True), smoke),
    ]


# --- web-queries -------------------------------------------------------------------

QUERY_WEBS = [("p2-6", p2_points(6), p2_height), ("rect-4x2", rect_points(4, 2), rect_height)]
N_CHAMBER_ABOVE, N_CHAMBER_BELOW, N_CHAMBER_WALL = 10, 10, 4
TRANSPORT_VERTICES = (3, 4, 5, 6) * 6  # 24 closed polylines
DUAL_FORMATS = (("p2-6", "json"), ("rect-4x2", "json"), ("p2-6", "svg"),
                ("rect-4x2", "svg"), ("p2-6", "json"), ("rect-4x2", "svg"))
N_MIRROR_RAW = 6


@dataclass
class QueryWeb:
    name: str
    path: str  # diagram JSON written from `tropmirror web`
    data: dict
    pres: object  # CutPresentation built once in set-up
    box: tuple  # bounding box of the vertices, widened by 1

    @property
    def nfaces(self) -> int:
        return _faces_of_diagram(self.data)


def _query_web(prog: Program, rng: random.Random, work: str, name, pts, quad) -> QueryWeb:
    charges = _write_json(os.path.join(work, f"{name}.json"), charge_data(pts, quad, rng))
    res = prog.run_cli(["web", "--charges", charges])
    if res.code != 0:
        raise RuntimeError(f"set-up: web --charges {charges} failed: {res.stderr.strip()}")
    path = os.path.join(work, f"{name}-web.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(res.stdout)
    data = json.loads(res.stdout)
    tm = prog.tm
    diag = tm.TropicalDiagram(
        2,
        tuple(tuple(Q(c) for c in v) for v in data["vertices"]),
        tuple((i, j) for i, j in data["edges"]),
        tuple((r["at"], tuple(r["dir"])) for r in data["rays"]),
    )
    xs = [Q(v[0]) for v in data["vertices"]]
    ys = [Q(v[1]) for v in data["vertices"]]
    box = (min(xs) - 1, max(xs) + 1, min(ys) - 1, max(ys) + 1)
    return QueryWeb(name, path, data, tm.build_cut_presentation(diag), box)


def _generic_xy(rng: random.Random, web: QueryWeb):
    x0, x1, y0, y1 = web.box
    return _generic(rng, x0, x1), _generic(rng, y0, y1)


def web_queries(prog: Program, rng: random.Random, work: str) -> list[Op]:
    webs = {name: _query_web(prog, rng, work, name, *rest) for name, *rest in QUERY_WEBS}
    names = [name for name, *_ in QUERY_WEBS]
    ops: list[Op] = []

    heights = ["above"] * N_CHAMBER_ABOVE + ["below"] * N_CHAMBER_BELOW + ["wall"] * N_CHAMBER_WALL
    for i, side in enumerate(heights):
        web = webs[names[i % 2]]
        x, y = _generic_xy(rng, web)
        t = {"above": 1, "below": -1, "wall": 0}[side] * _generic(rng, Q(1, 10), 1)
        ops.append(_chamber_op(prog, f"chamber:{i:02d}", web, (x, y, t), smoke=i == 1))

    for i, nvert in enumerate(TRANSPORT_VERTICES):
        web = webs[names[i % 2]]
        pts = [(*_generic_xy(rng, web), -_generic(rng, Q(1, 10), 1)) for _ in range(nvert)]
        pts.append(pts[0])
        g = tuple(rng.randint(-5, 5) for _ in range(3))
        ops.append(_transport_op(prog, f"transport:{i:02d}", web, pts, g, work, smoke=i == 1))

    for i, (name, fmt) in enumerate(DUAL_FORMATS):
        web = webs[name]
        argv = ["dual", web.path, "--format", fmt]
        if fmt == "json":
            check = check_dual(web.nfaces, len(web.data["vertices"]))
        else:
            check = check_dual_svg(len(web.data["vertices"]), web.nfaces)
        ops.append(cli_op(prog, f"dual:{i}:{name}:{fmt}", "dual", argv, check, smoke=i in (1, 3)))

    for i in range(N_MIRROR_RAW):
        web = webs[names[i % 2]]
        x, y = _generic_xy(rng, web)
        argv = ["mirror", web.path, "--raw", f"--base-point={x},{y}"]  # "=": may start with "-"
        ops.append(cli_op(prog, f"mirror:{i}:{web.name}", "mirror", argv,
                          check_mirror(web.nfaces, False), smoke=i == 1))

    rng.shuffle(ops)
    return ops


def _chamber_op(prog: Program, op_id: str, web: QueryWeb, point, smoke: bool) -> Op:
    t = point[2]

    def check(found) -> Optional[str]:
        text = str(found)
        if t > 0:
            return _expect("chamber", text, "V_plus")
        if t < 0:
            return _expect("chamber", text, "V_minus")
        face = text[len("wall("):-1] if text.startswith("wall(") and text.endswith(")") else ""
        if not face.isdigit() or not int(face) < web.nfaces:
            return f"chamber: expected wall(<face below {web.nfaces}>), got {text!r}"
        return None

    return Op(
        op_id,
        "chamber",
        f"chamber_of({web.name}, {tuple(map(str, point))})",
        lambda: prog.tm.chamber_of(web.pres, point),
        lambda found: str(found).encode(),
        check,
        smoke,
    )


def _transport_op(prog: Program, op_id: str, web: QueryWeb, pts, g, work: str, smoke: bool) -> Op:
    path = _write_json(os.path.join(work, f"path-{op_id.replace(':', '-')}.json"),
                       {"path": [[str(c) for c in p] for p in pts]})
    cls = ",".join(str(c) for c in g)

    def check(out) -> Optional[str]:
        w = _expect("class", out["class"], list(g))
        if w:
            return w
        # the reverse path must carry the result back to the starting class
        back = prog.tm.transport_covector(web.pres, pts[::-1], out["result"])
        return _expect("reverse transport of result", list(back), list(g))

    return cli_op(prog, op_id, "transport",
                  ["transport", web.path, "--path", path, f"--class={cls}"], _json_check(check), smoke)


# --- series-ladder -------------------------------------------------------------------

# units inverted per truncation: many cheap inversions, few dear ones
INV_UNITS = {5: 8, 10: 8, 20: 4, 40: 1}
# (exponents, coefficient magnitudes) of the units, used in turn; the seed
# picks only the signs, so every seed inverts units of the same size.  The
# leading coefficient is what nov_inv divides by: 1 keeps the inverse
# integral, 2 and 3 give it denominators 2^k and 3^k.
INV_SHAPES = (
    ((0, Q(1, 2), Q(3, 2)), (1, 3, 2)),
    ((0, Q(1, 2), 1, Q(5, 2)), (2, 1, 3, 5)),
    ((0, Q(1, 2), 1, 2, Q(7, 2)), (1, 2, 1, 3, 4)),
    ((0, Q(1, 2), 2, 3), (3, 1, 2, 1)),
)
WALL_SERIES = {10: 3, 20: 2, 40: 1}  # series crossed per truncation
WALL_EXPONENTS = tuple((u1, u2) for u1 in range(-2, 3) for u2 in range(1, 5))  # 20 monomials
EVAL_TERMS = (50, 100, 200)
EVAL_DEN = 1009  # prime denominator of the evaluation point
EVAL_VALUATION_DENS = (1, 2, 3, 4)  # denominator of term k's valuation: k-th in turn
DEMO_TRUNCATIONS = (10, 40, 160)


def _nov_key(terms) -> list:
    return [[str(e), str(c)] for e, c in terms]


def _mul_terms(a, b) -> dict:
    """Product of two term lists as {exponent: coefficient}."""
    acc: dict = {}
    for ea, ca in a:
        for eb, cb in b:
            acc[ea + eb] = acc.get(ea + eb, 0) + ca * cb
    return acc


def series_ladder(prog: Program, rng: random.Random, work: str) -> list[Op]:
    ops: list[Op] = []
    for E, n in INV_UNITS.items():
        for i in range(n):
            shape = INV_SHAPES[i % len(INV_SHAPES)]
            ops.append(_inv_op(prog, rng, E, i, shape, smoke=(E, i) == (5, 0)))
    for E, n in WALL_SERIES.items():
        for i in range(n):
            ops.append(_wall_op(prog, rng, E, i, smoke=(E, i) == (10, 0)))
    for n in EVAL_TERMS:
        ops.append(_eval_op(prog, rng, n, work, smoke=n == EVAL_TERMS[0]))
    for E in DEMO_TRUNCATIONS:
        ops.append(cli_op(prog, f"wallcross-demo:E{E}", "wallcross", ["wallcross-demo", "-E", str(E)],
                          _check_demo(E), smoke=E == DEMO_TRUNCATIONS[0]))
    return ops


def _inv_op(prog: Program, rng: random.Random, E: int, i: int, shape, smoke: bool) -> Op:
    terms = [(Q(e), _signed(rng, Q(c))) for e, c in zip(*shape)]
    a = prog.tm.nov(terms)

    def check(b) -> Optional[str]:
        prod = _mul_terms(terms, b.terms)
        for e in sorted(prod):
            want = 1 if e == 0 else 0
            if e < E and prod[e] != want:
                return f"a*nov_inv(a) at t^{e}: expected {want}, got {prod[e]}"
        return None

    return Op(
        f"nov_inv:E{E}:u{i}",
        "nov_inv",
        f"nov_inv({_nov_key(terms)}, {E})",
        lambda: prog.tm.nov_inv(a, E),
        lambda b: json.dumps([_nov_key(b.terms), str(b.truncation)]).encode(),
        check,
        smoke,
    )


# the focus-focus chamber boxes and wall: crossing z^u with u2 > 0 has a
# negative pairing with the normal, so every monomial becomes a cone family
BOX_MINUS = ((Q(1, 4), Q(2)), (Q(-2), Q(-1, 4)))
BOX_PLUS = ((Q(1, 4), Q(2)), (Q(1, 4), Q(2)))
GAMMA, NORMAL = (1, 0), (0, -1)


def _box_min(u, box) -> Q:
    return sum(min(c * lo, c * hi) for c, (lo, hi) in zip(u, box))


def _series_key(s) -> bytes:
    return json.dumps(
        {
            "chamber": s.chamber,
            "truncation": str(s.truncation),
            "box": [[str(lo), str(hi)] for lo, hi in s.box.intervals],
            "terms": [[list(m.expo), _nov_key(m.coeff.terms)] for m in s.terms],
        },
        sort_keys=True,
    ).encode()


def _wall_op(prog: Program, rng: random.Random, E: int, i: int, smoke: bool) -> Op:
    an, lat = prog.analytic, prog.lattice
    # fixed exponents and valuations, seeded coefficients: the same cone
    # families are materialized for every seed
    monos = {u: [(Q(u[0] % 3, 2), _signed(rng, _slot_coeff(k)))]
             for k, u in enumerate(WALL_EXPONENTS)}
    a = an.series([an.Monomial(prog.tm.nov(c), u) for u, c in sorted(monos.items())],
                  "V_minus", lat.Box(BOX_MINUS), E)
    w = an.WallTransformation(0, GAMMA, NORMAL, "corrected")
    target = lat.Box(BOX_PLUS)

    def expected() -> dict:
        """z^u -> z^u (1 + z^gamma)^(-p), p = -<u, normal>, expanded mod t^E."""
        acc: dict = {}
        for u, coeff in monos.items():
            p = -(u[0] * NORMAL[0] + u[1] * NORMAL[1])
            val = coeff[0][0]
            j = 0
            while True:
                expo = (u[0] + j * GAMMA[0], u[1] + j * GAMMA[1])
                if val + _box_min(expo, BOX_PLUS) >= E:
                    break
                cj = math.comb(p + j - 1, j) * (-1) ** j
                slot = acc.setdefault(expo, {})
                for e, c in coeff:
                    slot[e] = slot.get(e, 0) + cj * c
                j += 1
        return acc

    def check(s) -> Optional[str]:
        w = _expect("chamber", s.chamber, "V_plus")
        if w:
            return w
        want = expected()
        got = {m.expo: dict(m.coeff.terms) for m in s.terms}
        for expo in sorted(set(want) | set(got)):
            diff = dict(want.get(expo, {}))
            for e, c in got.get(expo, {}).items():
                diff[e] = diff.get(e, 0) - c
            for e in sorted(diff):
                if diff[e] != 0 and e + _box_min(expo, BOX_PLUS) < E:
                    return (f"coefficient of z^{expo} at t^{e}: expected "
                            f"{want.get(expo, {}).get(e, 0)}, got {got.get(expo, {}).get(e, 0)}")
        return None

    return Op(
        f"wall_cross:E{E}:s{i}",
        "wallcross",
        f"wall_cross(20 monomials, corrected, E={E})",
        lambda: prog.tm.wall_cross(a, w, E, target),
        _series_key,
        check,
        smoke,
    )


def _eval_op(prog: Program, rng: random.Random, n: int, work: str, smoke: bool) -> Op:
    """Evaluate n monomials at a point; no term reaches the truncation."""
    truncation = Q(1000)
    expos = set()
    while len(expos) < n:
        expos.add((rng.randint(-30, 30), rng.randint(-30, 30)))
    dens = EVAL_VALUATION_DENS
    terms = [(u, [(Q(rng.randint(0, 20), dens[k % len(dens)]), _signed(rng, _slot_coeff(k)))])
             for k, u in enumerate(sorted(expos))]
    point = tuple(Q(rng.randint(EVAL_DEN // 4, 2 * EVAL_DEN), EVAL_DEN) for _ in range(2))
    data = {
        "dim": 2,
        "chamber": "V_plus",
        "truncation": str(truncation),
        "box": [[str(lo), str(hi)] for lo, hi in BOX_PLUS],
        "terms": [{"expo": list(u), "coeff": [{"exp": str(e), "coeff": str(c)} for e, c in coeff]}
                  for u, coeff in terms],
    }
    path = _write_json(os.path.join(work, f"series-{n}.json"), data)

    def check(out) -> Optional[str]:
        acc: dict = {}
        for u, coeff in terms:
            shift = u[0] * point[0] + u[1] * point[1]
            for e, c in coeff:
                acc[e + shift] = acc.get(e + shift, 0) + c
        want = [{"exp": str(e), "coeff": str(c)} for e, c in sorted(acc.items())
                if c != 0 and e < truncation]
        got = out["terms"]
        for k, (wt, gt) in enumerate(zip(want, got)):
            if wt != gt:
                return f"terms[{k}]: expected {wt}, got {gt}"
        return _expect("len(terms)", len(got), len(want))

    return cli_op(prog, f"eval:N{n}", "eval", ["eval", path, f"--point={point[0]},{point[1]}"],
                  _json_check(check), smoke)


def _check_demo(E: int):
    def check(text: str) -> Optional[str]:
        lines = text.splitlines()
        w = _first(
            _expect("line 1", lines[0] if lines else None, f"focus-focus wall crossing at E = {E}"),
            _expect("last line", lines[-1][:16] if len(lines) > 2 else None, "mirror relation:"),
        )
        if w:
            return w
        for k, line in enumerate(lines[1:-1], start=2):
            if not line.startswith("PASS"):
                return f"line {k}: expected PASS, got {line!r}"
        return None

    return check


WORKLOADS = {
    "build-ladder": build_ladder,
    "web-queries": web_queries,
    "series-ladder": series_ladder,
}
