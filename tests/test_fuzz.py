"""Cross-module fuzzing on random smooth webs, and of the CLI's input files."""

import glob
import json
import os
import random
import re
import time
from fractions import Fraction as Q

from helpers import box, dual_vertex_cone, intersect_shifted_cones, is_unimodular, random_smooth_web
from tropmirror.cli import run
from tropmirror.diagram import (
    dual_subdivision,
    face_heights,
    is_smooth,
    validate,
)
from tropmirror.lattice import dot, vsub
from tropmirror.mirror import normalize_presentation, superpotential
from tropmirror.monodromy import build_dual_graph, edge_covector
from tropmirror.novikov import nov_val


def test_random_webs_full_battery():
    rng = random.Random(314159)
    for _ in range(25):
        web = random_smooth_web(rng)
        assert validate(web).ok
        assert is_smooth(web)

        dual = dual_subdivision(web)
        assert build_dual_graph(web) == dual.lattice_points

        # duality: covector = dual difference, orthogonal to the edge
        for e, (left, right) in dual.edge_duality:
            diff = vsub(dual.lattice_points[left], dual.lattice_points[right])
            assert diff == edge_covector(web, e)

        # cone-support lemma on a box covering the support
        coords = [c for p in dual.lattice_points for c in p]
        lo, hi = min(coords) - 1, max(coords) + 1
        cones = [dual_vertex_cone(dual, f) for f in range(len(dual.lattice_points))]
        found = intersect_shifted_cones(cones, box((lo, hi), (lo, hi)))
        assert found == set(dual.lattice_points)

        # normalized mirror: unit leading coefficients, nonnegative exponents,
        # zero exactly on the cells at the root
        g = normalize_presentation(superpotential(web))
        vals = {a: nov_val(c) for a, c in g.terms}
        assert all(v >= 0 for v in vals.values())
        assert vals[tuple(0 for _ in range(web.dim))] == 0
        assert normalize_presentation(g) == g


def test_face_heights_loop_consistency():
    # recomputing heights from scratch with a different base point keeps all
    # increments consistent around every loop (raises internally otherwise)
    rng = random.Random(271828)
    for _ in range(10):
        web = random_smooth_web(rng)
        dual = dual_subdivision(web)
        for b in ((Q(0), Q(0)), (Q(7, 3), Q(-5, 2))):
            heights = face_heights(web, b)
            assert len(heights) == len(dual.lattice_points)
            # and the tropical min over any sampled point is attained by
            # locate_face's winner
            from tropmirror.diagram import locate_face

            x = (Q(rng.randint(-40, 40), 13), Q(rng.randint(-40, 40), 13))
            f = locate_face(web, x)
            if f is not None:
                values = {
                    g: heights[g] + dot(dual.lattice_points[g], vsub(x, b))
                    for g in heights
                }
                assert min(values.values()) == values[f]


def test_rectangles_with_many_parallel_rays():
    # boundary edges of lattice length up to 4 give several parallel rays,
    # stressing the rotation order at infinity
    from tropmirror.charges import ChargeError, regular_subdivision, web_from_subdivision

    rng = random.Random(777)
    cases = 0
    for w, h in [(4, 1), (3, 2), (4, 2), (1, 4), (2, 3)]:
        pts = [(x, y) for x in range(w + 1) for y in range(h + 1)]
        for _ in range(4):
            heights = [
                Q(x * x + y * y) + Q(rng.randint(-(10**5), 10**5), 10**7) for x, y in pts
            ]
            try:
                sub = regular_subdivision(pts, heights)
                if not is_unimodular(sub):
                    continue
                web = web_from_subdivision(sub)
            except ChargeError:
                continue
            assert validate(web).ok and is_smooth(web)
            dual = dual_subdivision(web)
            assert build_dual_graph(web) == dual.lattice_points
            cones = [dual_vertex_cone(dual, f) for f in range(len(dual.lattice_points))]
            lo = min(c for p in dual.lattice_points for c in p) - 1
            hi = max(c for p in dual.lattice_points for c in p) + 1
            assert intersect_shifted_cones(cones, box((lo, hi), (lo, hi))) == set(
                dual.lattice_points
            )
            cases += 1
    assert cases >= 10


# --- no input file makes the CLI traceback ---------------------------------------

SHIPPED = os.path.join(os.path.dirname(__file__), "..", "diagrams")
BAD_VALUES = ("1e999", '"1/0"', '"x"', "1.5", "null", "[]", "{}", "true", "-7", '"1e999999"')
HOLE = "\u0000hole"
LOOP = {"path": [["-1", "-1"], ["1", "-1"], ["1", "1"], ["-1", "1"], ["-1", "-1"]]}
# (document, the commands that read it, "{f}" standing for its file)
DOCUMENTS = [
    (None, [["validate", "{f}"], ["dual", "{f}"], ["mirror", "{f}"], ["render", "{f}", "--dual"],
            ["transport", "{f}", "--path", "{loop}", "--class", "0,1"], ["web", "--charges", "{f}"]]),
    ({"path": [["-1", "-1"], ["1", "-1"], ["1", "1"]]},
     [["transport", "{ff}", "--path", "{f}", "--class", "0,1"]]),
    ({"point0": "-2"}, [["transport", "{ff}", "--path", "{loop}", "--tau", "{f}", "--class", "0,1"]]),
    ({"dim": 2, "chamber": "V_plus", "truncation": "10", "box": [["1/4", "2"], ["1/4", "2"]],
      "terms": [{"expo": [1, 0], "coeff": [{"exp": "0", "coeff": "1"}, {"exp": "1/2", "coeff": "-3"}]}]},
     [["eval", "{f}", "--point", "1/2,3"]]),
    ([{"vertex": [0, 0], "series": [{"exp": "2", "coeff": "3"}]}, {"vertex": [1, 0], "series": []}],
     [["mirror", "{c3}", "--corrections", "{f}"]]),
]


def _slots(doc, where=()):
    """The place of every value inside a JSON document, as a key path."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield where + (key,)
        yield from _slots(value, where + (key,))


def _is_number_field(value) -> bool:
    """A JSON integer, or a string holding a rational number, as the shipped files write them."""
    if isinstance(value, str):
        try:
            Q(value)
        except ValueError:
            return False
        return True
    return type(value) is int


def _at(doc, slot):
    for key in slot:
        doc = doc[key]
    return doc


def _with_hole(doc, slot):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in slot[:-1]:
        parent = parent[key]
    parent[slot[-1]] = HOLE
    return doc


def test_no_input_value_makes_the_cli_traceback(tmp_path, capsys):
    """Every command that reads a file exits 0 or 1 whatever one value in it is.

    A ``true`` where a number belongs is refused as malformed, as in an
    integer field so in a rational one, and so is a ``1.5`` in an integer
    field (a JSON integer in the shipped files).  Every refusal writes one
    ``error:`` line to stderr; ``validate`` writes its failed report to
    stdout, and nothing to stderr.
    """
    rng = random.Random(20261018)
    names = {"loop": str(tmp_path / "loop.json"), "f": str(tmp_path / "case.json")}
    names.update(ff=os.path.join(SHIPPED, "focus_focus.json"), c3=os.path.join(SHIPPED, "c3.json"))
    (tmp_path / "loop.json").write_text(json.dumps(LOOP))
    shipped = []
    for name in sorted(glob.glob(os.path.join(SHIPPED, "*.json"))):
        with open(name, encoding="utf-8") as fh:
            shipped.append(json.load(fh))
    assert len(shipped) == 5
    start, cases, runs, bools, halves, escapes = time.perf_counter(), 0, 0, 0, 0, []
    for _ in range(660):
        doc, commands = rng.choice(DOCUMENTS)
        doc = rng.choice(shipped) if doc is None else doc
        slot = rng.choice(list(_slots(doc)))
        text = json.dumps(_with_hole(doc, slot))
        bad = rng.choice(BAD_VALUES)
        field = _at(doc, slot)
        refused = bad == "true" and _is_number_field(field) or bad == "1.5" and type(field) is int
        bools += refused and bad == "true"
        halves += refused and bad == "1.5"
        (tmp_path / "case.json").write_text(text.replace(json.dumps(HOLE), bad))
        cases += 1
        for argv in commands:
            argv = [arg.format(**names) for arg in argv]
            try:
                code = run(argv)
            except Exception as exc:  # noqa: BLE001 - an escape is the finding
                escapes.append((text, bad, argv[0], repr(exc)))
                continue
            err = capsys.readouterr().err
            runs += 1
            assert code in (0, 1), (text, bad, argv)
            if code == 1:
                one_line = err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
                assert one_line or argv[0] == "validate" and not err, (text, argv, err)
            if refused:
                assert code == 1 and re.match(r"error: malformed [a-z]+ JSON: ", err), (text, argv, err)
    assert not escapes, escapes[:5]
    assert cases >= 300 and runs >= 600 and bools >= 10 and halves >= 10
    assert time.perf_counter() - start < 2.0
