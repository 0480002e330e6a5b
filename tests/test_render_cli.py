import importlib
import io
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
from fractions import Fraction as Q

import pytest

import tropmirror
from tropmirror.charges import ChargeMatrix, build_web
from tropmirror import charges, cli
from tropmirror.cli import run
from tropmirror.diagram import TropicalDiagram, diagram_to_json
from tropmirror.lattice import DIGITS
from tropmirror.record import FrozenInstanceError
from tropmirror.render import RenderError, render

DIAGRAMS = os.path.join(os.path.dirname(__file__), "..", "diagrams")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def c3():
    return TropicalDiagram(2, ((Q(0), Q(0)),), (), ((0, (1, 0)), (0, (0, 1)), (0, (-1, -1))))


def conifold():
    return build_web(ChargeMatrix(((1, 1, -1, -1),), 4), [0, 1, 0, 0]).diagram


def path(name):
    return os.path.join(DIAGRAMS, name)


def test_svg_c3_has_three_ray_lines():
    svg = render(c3(), fmt="svg")
    assert svg.count("<line") == 3
    assert svg.count('class="ray"') == 3


def test_dot_conifold_structure():
    dot = render(conifold(), fmt="dot")
    assert dot.count("v0") >= 1 and dot.count("v1") >= 1
    assert dot.count("[class=edge]") == 1
    assert dot.count("[class=ray]") == 4
    assert dot.count("shape=point") == 4


def test_render_d1_number_line():
    svg = render(TropicalDiagram(1, ((Q(0),), (Q(2),))), fmt="svg")
    assert svg.count("<circle") == 2
    assert svg.count('class="axis"') == 1


def test_render_empty_and_unknown_format():
    with pytest.raises(RenderError, match="empty"):
        render(TropicalDiagram(2, ()), fmt="svg")
    with pytest.raises(RenderError, match="unknown format"):
        render(c3(), fmt="png")


LIMIT = f"is beyond the drawable limit: the drawing must span at most {sys.float_info.max:.6g} SVG units each way"


def test_render_refuses_a_drawing_beyond_float_range():
    far = Q(10) ** 4299
    with pytest.raises(RenderError, match=f"^vertex 0 {re.escape(LIMIT)}$"):
        render(TropicalDiagram(1, ((far,), (Q(0),))), fmt="svg")
    with pytest.raises(RenderError, match=f"^vertex 1 {re.escape(LIMIT)}$"):
        render(TropicalDiagram(1, ((Q(0),), (-far,))), fmt="svg")
    rays = ((0, (1, 0)), (0, (0, 1)), (0, (-1, -(10**400))))
    with pytest.raises(RenderError, match=f"^the end of ray 2 {re.escape(LIMIT)}$"):
        render(TropicalDiagram(2, ((Q(0), Q(0)),), (), rays), fmt="svg")
    # just inside the limit the drawing is made, with the coordinates as floats
    near = Q(10) ** 306
    svg = render(TropicalDiagram(1, ((near,), (Q(0),))), fmt="svg")
    width = f"{float(40 * near + 360):.4f}".rstrip("0").rstrip(".")
    assert svg.startswith(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="120"')


@pytest.mark.parametrize("argv", [["render", "{f}"], ["render", "{f}", "--dual"], ["dual", "{f}", "--format", "svg"]])
def test_cli_render_beyond_float_range_names_the_vertex(tmp_path, capsys, argv):
    f = tmp_path / "far.json"
    f.write_text(json.dumps({"dim": 1, "vertices": [["1e4299"], ["0"]]}))
    assert run([arg.format(f=f) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"error: vertex 0 {LIMIT}\n")


def test_render_deterministic():
    a = render(conifold(), fmt="svg")
    b = render(conifold(), fmt="svg")
    assert a == b


def test_cli_validate_ok(capsys):
    assert run(["validate", path("c3.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True


def test_cli_validate_failure(tmp_path, capsys):
    bad = {"dim": 2, "vertices": [["0", "0"]], "edges": [],
           "rays": [{"at": 0, "dir": [1, 0]}, {"at": 0, "dir": [-1, 0]}]}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad))
    assert run(["validate", str(f)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["trivalent"] is False


C3_RAYS = [{"at": 0, "dir": [1, 0]}, {"at": 0, "dir": [0, 1]}, {"at": 0, "dir": [-1, -1]}]


@pytest.mark.parametrize(
    "content",
    [
        {"dim": 2, "vertices": ["00"], "rays": C3_RAYS},
        {"dim": 2, "vertices": "00", "rays": C3_RAYS},
        {"dim": 2, "vertices": [["0", "0"]], "rays": C3_RAYS[:2] + [{"at": 0, "dir": "11"}]},
        {"dim": 2, "vertices": [["0", "0"], ["1", "0"]], "edges": ["01"], "rays": []},
    ],
)
def test_cli_validate_rejects_string_coordinates(tmp_path, capsys, content):
    f = tmp_path / "strings.json"
    f.write_text(json.dumps(content))
    assert run(["validate", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed diagram JSON: expected a list of coordinates")


def test_cli_validate_empty_diagram(tmp_path, capsys):
    for dim in (1, 2):
        f = tmp_path / f"empty{dim}.json"
        f.write_text(json.dumps({"dim": dim, "vertices": []}))
        assert run(["validate", str(f)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False
        assert ["connected", "empty diagram has no vertices"] in out["offenders"]
        for command in (["dual"], ["mirror"], ["render", "--dual"]):
            assert run(command[:1] + [str(f)] + command[1:]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: empty diagram has no vertices\n"


def test_cli_mirror_focus_focus(capsys):
    assert run(["mirror", path("focus_focus.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["relation"] == "x*y - (1 + u)"


def test_cli_dual_c3(capsys):
    assert run(["dual", path("c3.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, out["lattice_points"])) == [(0, 0), (0, 1), (1, 0)]
    assert out["embedding_matches_subdivision"] is True
    assert out["smooth"] is True
    assert len(out["covectors"]) == 3


def test_cli_dual_reports_a_non_smooth_web(tmp_path, capsys):
    # one vertex whose dual triangle has area 3/2: valid, balanced, not smooth
    f = tmp_path / "coarse.json"
    f.write_text(json.dumps({"dim": 2, "vertices": [[0, 0]], "rays": [{"at": 0, "dir": d} for d in ([1, 2], [1, -1], [-2, -1])]}))
    assert run(["dual", str(f)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    out = json.loads(out)
    assert out["smooth"] is False
    assert out["embedding_matches_subdivision"] is True
    assert sorted(map(tuple, out["lattice_points"])) == [(0, 0), (1, 1), (2, -1)]  # area 3/2


def test_cli_web_conifold(capsys):
    assert run(["web", "--charges", path("conifold.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["vertices"]) == 2
    assert out["simplicial"] is True


def test_cli_web_degenerate(tmp_path, capsys):
    f = tmp_path / "degenerate.json"
    f.write_text(json.dumps({"charges": [[1, 1, -1, -1]], "heights": ["0", "0", "0", "0"]}))
    assert run(["web", "--charges", str(f)]) == 1
    err = capsys.readouterr().err
    assert "degenerate Kähler parameters" in err
    assert run(["web", "--charges", str(f), "--allow-singular"]) == 0


OVERSIZED = {
    "wide": ({"charges": [[1, -1] + ["x"] * 999], "heights": ["0"] * 1001}, "1 x 1001"),
    "long": ({"charges": [[1, 1, -1, "x"]] * 1001, "heights": ["0"] * 4}, "1001 x 4"),
}


@pytest.mark.parametrize("argv", [["web", "--charges"], ["dual"]], ids=["web", "dual"])
@pytest.mark.parametrize("shape", sorted(OVERSIZED))
def test_cli_refuses_an_oversized_charge_file_before_reading_it(tmp_path, capsys, argv, shape):
    # the entries "x" are never read: the size is refused first
    doc, size = OVERSIZED[shape]
    f = tmp_path / "big.json"
    f.write_text(json.dumps(doc))
    assert run(argv + [str(f)]) == 1
    message = f"malformed charge JSON: charge matrix is {size}, over the limit of 1000 rows or columns"
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_reads_a_charge_file_at_the_size_limit(tmp_path, capsys):
    f = tmp_path / "edge.json"
    f.write_text(json.dumps({"charges": [[1, -1] + [0] * 998], "heights": ["0"] * 1000}))
    assert run(["web", "--charges", str(f)]) == 1
    assert capsys.readouterr() == ("", "error: charge matrix has corank 999, need 3\n")


def test_cli_wallcross_demo(capsys):
    assert run(["wallcross-demo", "-E", "10"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_wallcross_demo_prints_no_escape_codes_on_a_terminal(monkeypatch):
    class Terminal(io.StringIO):
        def isatty(self):
            return True

    out = Terminal()
    monkeypatch.setattr(sys, "stdout", out)
    assert run(["wallcross-demo", "-E", "10"]) == 0
    assert "PASS" in out.getvalue() and "\x1b[" not in out.getvalue()


def test_cli_wallcross_demo_json(capsys):
    assert run(["wallcross-demo", "--json", "-E", "1/2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True


def test_cli_transport(tmp_path, capsys):
    pf = tmp_path / "path.json"
    pf.write_text(json.dumps({"path": [["-1", "-1"], ["1", "-1"], ["1", "1"], ["-1", "1"], ["-1", "-1"]]}))
    assert run(["transport", path("focus_focus.json"), "--path", str(pf), "--class", "0,1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == [1, 1]


def test_cli_eval(tmp_path, capsys):
    sf = tmp_path / "series.json"
    sf.write_text(json.dumps({
        "dim": 2, "chamber": "V_plus", "truncation": "10",
        "box": [["1/4", "2"], ["1/4", "2"]],
        "terms": [{"expo": [1, 0], "coeff": [{"exp": "0", "coeff": "1"}]}],
    }))
    assert run(["eval", str(sf), "--point", "1/2,3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["text"] == "1*t^{1/2}"


def test_cli_render_formats(capsys):
    assert run(["render", path("c3.json"), "--format", "svg"]) == 0
    svg = capsys.readouterr().out
    assert svg.startswith("<svg")
    assert run(["render", path("c3.json"), "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("graph web")


def test_cli_render_refuses_dual_with_dot_before_reading_the_diagram(tmp_path, capsys):
    # a crossing diagram that dot draws, but whose dual subdivision is refused
    crossing = {"dim": 2, "vertices": [["0", "0"], ["2", "2"], ["3", "2"]], "edges": [[0, 1], [1, 2]],
                "rays": [{"at": 0, "dir": [-1, 0]}, {"at": 0, "dir": [0, -1]}, {"at": 1, "dir": [0, 1]},
                         {"at": 2, "dir": [-2, -1]}, {"at": 2, "dir": [3, 1]}]}
    drawn = tmp_path / "crossing.json"
    drawn.write_text(json.dumps(crossing))
    assert run(["render", str(drawn), "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("graph web")
    for diagram in (str(drawn), path("kp2.json"), str(tmp_path / "missing.json")):
        for argv in (["--format", "dot", "--dual"], ["--dual", "--format", "dot"]):
            assert run(["render", diagram, *argv]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.endswith("error: render: --dual is drawn only by --format svg, not --format dot\n")
    assert run(["render", path("kp2.json"), "--format", "svg", "--dual"]) == 0
    assert capsys.readouterr().out.startswith("<svg")


def test_cli_usage_errors(capsys):
    assert run(["bogus-subcommand"]) == 2
    capsys.readouterr()
    assert run([]) == 2
    capsys.readouterr()


def test_cli_determinism(capsys):
    run(["mirror", path("kp2.json")])
    first = capsys.readouterr().out
    run(["mirror", path("kp2.json")])
    second = capsys.readouterr().out
    assert first == second
    run(["dual", path("c3.json")])
    third = capsys.readouterr().out
    run(["dual", path("c3.json")])
    assert third == capsys.readouterr().out


def test_cli_parser_is_built_once_and_reused(capsys):
    argvs = [
        ["mirror", path("c3.json")],
        ["mirror", path("c3.json"), "--bogus"],
        ["--version"],
        ["dual", path("c3.json"), "--flip-sign"],
        ["dual"],
        ["render", path("c3.json"), "--format", "nope"],
        ["wallcross-demo", "-E", "5"],
        ["--version"],
        ["mirror", path("c3.json")],
    ]

    def outcomes(fresh: bool) -> list:
        got = []
        for argv in argvs:
            if fresh:
                cli._build_parser.cache_clear()
            code = run(argv)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    cli._build_parser.cache_clear()
    shared = outcomes(fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 2, 2, 0, 0, 0]
    assert shared[2][1].startswith("tropmirror ")
    assert shared == outcomes(fresh=True)


def test_cli_round_trip_web_then_mirror(tmp_path, capsys):
    assert run(["web", "--charges", path("conifold.json")]) == 0
    data = json.loads(capsys.readouterr().out)
    slim = {k: data[k] for k in ("dim", "vertices", "edges", "rays")}
    f = tmp_path / "conifold_web.json"
    f.write_text(json.dumps(slim))
    assert run(["mirror", str(f)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["relation"] == "x*y - (1 + u1 + u2 + t^{1}*u1*u2)"


def test_emitted_diagram_json_reparses():
    diag = conifold()
    text = json.dumps(diagram_to_json(diag))
    from tropmirror.diagram import diagram_from_json

    assert diagram_from_json(json.loads(text)) == diag


def test_cli_mirror_accepts_charge_files(capsys):
    assert run(["mirror", path("conifold.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["relation"] == "x*y - (1 + u1 + u2 + t^{1}*u1*u2)"


def test_cli_mirror_base_point_and_raw(capsys):
    assert run(["mirror", path("c3.json"), "--base-point", "5,7"]) == 0
    normalized = json.loads(capsys.readouterr().out)
    assert normalized["relation"] == "x*y - (1 + u1 + u2)"
    assert run(["mirror", path("c3.json"), "--base-point", "5,7", "--raw"]) == 0
    raw = json.loads(capsys.readouterr().out)
    assert raw["relation"] != normalized["relation"]  # unnormalized carries t-powers


def test_cli_mirror_corrections(tmp_path, capsys):
    cf = tmp_path / "corr.json"
    cf.write_text(json.dumps([{"vertex": [0, 0], "series": [{"exp": "2", "coeff": "3"}]}]))
    assert run(["mirror", path("c3.json"), "--corrections", str(cf)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "(1 + 3*t^{2})" in out["relation"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"vertex": [0, 0], "series": [{"exp": "0", "coeff": "1"}]}]))
    assert run(["mirror", path("c3.json"), "--corrections", str(bad)]) == 1
    assert "positive valuation" in capsys.readouterr().err
    twice = [{"vertex": [0, 0], "series": [{"exp": "2", "coeff": "3"}]},
             {"vertex": [0, 0], "series": [{"exp": "1", "coeff": "5"}]}]
    bad.write_text(json.dumps(twice))
    assert run(["mirror", path("c3.json"), "--corrections", str(bad)]) == 1
    assert capsys.readouterr().err == "error: repeated correction vertex (0, 0)\n"
    bad.write_text(json.dumps([{"vertex": "00", "series": [{"exp": "2", "coeff": "3"}]}]))
    assert run(["mirror", path("c3.json"), "--corrections", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: malformed corrections JSON: ")


def test_cli_mirror_corrections_name_the_bad_entry(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"vertex": [0, 0], "series": "2*t^1"}]))
    assert run(["mirror", path("c3.json"), "--corrections", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        'error: malformed corrections JSON: entry 0: "series" must be a list of {"exp", "coeff"} objects'
        " (string indices must be integers, not 'str')\n"
    )
    good = {"vertex": [0, 0], "series": [{"exp": "2", "coeff": "3"}]}
    bad.write_text(json.dumps([good, {"vertex": [1, 0], "series": [{"exp": "1"}]}]))
    assert run(["mirror", path("c3.json"), "--corrections", str(bad)]) == 1
    assert capsys.readouterr().err.startswith('error: malformed corrections JSON: entry 1: "series" must be')
    bad.write_text(json.dumps([{"vertex": [0, 0], "series": [{"exp": "1/0", "coeff": "1"}]}]))
    assert run(["mirror", path("c3.json"), "--corrections", str(bad)]) == 1
    assert capsys.readouterr().err.startswith('error: malformed corrections JSON: entry 0: "series" must be')
    bad.write_text(json.dumps(good))
    assert run(["mirror", path("c3.json"), "--corrections", str(bad)]) == 1
    assert capsys.readouterr().err == 'error: malformed corrections JSON: expected a list of {"vertex", "series"} objects\n'


def test_cli_dual_root_face_and_flip(capsys):
    assert run(["dual", path("c3.json"), "--flip-sign"]) == 0
    flipped = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, flipped["lattice_points"])) == [(0, 0), (1, -1), (1, 0)]
    assert run(["dual", path("c3.json"), "--root-face", "0"]) == 0
    rooted = json.loads(capsys.readouterr().out)
    assert rooted["root_face"] == 0
    assert rooted["lattice_points"][0] == [0, 0]


def test_cli_transport_tau(tmp_path, capsys):
    pf = tmp_path / "path.json"
    # the loop at height -1/2 circles the critical value; raising tau on the
    # cut to -2 moves the cut below the loop and kills the crossing
    pf.write_text(json.dumps({"path": [["-1", "-1/2"], ["1", "-1/2"], ["1", "1"], ["-1", "1"], ["-1", "-1/2"]]}))
    tf = tmp_path / "tau.json"
    tf.write_text(json.dumps({"point0": "-2"}))
    assert run(["transport", path("focus_focus.json"), "--path", str(pf), "--class", "0,1"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == [1, 1]
    assert run(["transport", path("focus_focus.json"), "--path", str(pf), "--class", "0,1", "--tau", str(tf)]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == [0, 1]


NOT_A_TAU_OBJECT = "malformed tau JSON: expected an object of edge names to heights"


@pytest.mark.parametrize(
    "option, content, message",
    [
        ("--path", {"points": [["0", "0"]]}, "malformed path JSON"),
        ("--path", {"path": 5}, "malformed path JSON"),
        ("--path", {"path": ["12", "34"]}, "malformed path JSON"),
        ("--tau", [["point0", "-2"]], "malformed tau JSON"),
        *(
            pytest.param("--tau", content, f"{NOT_A_TAU_OBJECT}, got {kind}", id=f"--tau-{kind}")
            for content, kind in (([1, 2], "list"), (5, "int"), ("edge0", "str"))
        ),
    ],
)
def test_cli_transport_malformed_json(tmp_path, capsys, option, content, message):
    files = {"--path": tmp_path / "path.json", "--tau": tmp_path / "tau.json"}
    files["--path"].write_text(json.dumps({"path": [["-1", "-1"], ["1", "-1"]]}))
    files["--tau"].write_text(json.dumps({"point0": "-2"}))
    files[option].write_text(json.dumps(content))
    argv = ["transport", path("focus_focus.json"), "--class", "0,1"]
    argv += ["--path", str(files["--path"]), "--tau", str(files["--tau"])]
    assert run(argv) == 1
    err = capsys.readouterr().err
    # a bare "malformed <kind> JSON" goes on in Python's wording; a longer message is the whole line
    if message.endswith(" JSON"):
        assert err.startswith(f"error: {message}: ")
    else:
        assert err == f"error: {message}\n"


# each reader names what its file should be when the file is not an object;
# a corrections file is a list, and each of its entries is an object
NOT_AN_OBJECT = {
    "validate": (["validate", "{file}"], 'malformed diagram JSON: expected an object with "dim" and "vertices"'),
    "web": (["web", "--charges", "{file}"], 'malformed charge JSON: expected an object with "charges" and "heights"'),
    "eval": (
        ["eval", "{file}", "--point", "1,1"],
        'malformed series JSON: expected an object with "dim", "chamber", "box", "truncation" and "terms"',
    ),
    "transport": (
        ["transport", "{ff}", "--path", "{file}", "--class", "0,1"],
        'malformed path JSON: expected an object with a "path" list of points',
    ),
    "corrections": (
        ["mirror", "{c3}", "--corrections", "{file}"],
        'malformed corrections JSON: entry 0: expected an object with "vertex" and "series"',
    ),
}


@pytest.mark.parametrize("content, kind", [([1, 2], "list"), (5, "int"), ("abc", "str")], ids=["list", "int", "str"])
@pytest.mark.parametrize("reader", sorted(NOT_AN_OBJECT))
def test_cli_readers_say_what_a_file_should_be(tmp_path, capsys, reader, content, kind):
    template, message = NOT_AN_OBJECT[reader]
    f = tmp_path / "file.json"
    f.write_text(json.dumps([content] if reader == "corrections" else content))
    files = {"file": str(f), "ff": path("focus_focus.json"), "c3": path("c3.json")}
    assert run([word.format(**files) for word in template]) == 1
    assert capsys.readouterr() == ("", f"error: {message}, got {kind}\n")


def test_python_dash_m_tropmirror_matches_run(capsys):
    assert run(["validate", path("c3.json")]) == 0
    expected = capsys.readouterr().out.encode()
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "tropmirror", "validate", path("c3.json")]
    proc = subprocess.run(argv, env=env, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")


SERIES = {
    "dim": 2, "chamber": "V_plus", "truncation": "10",
    "box": [["1/4", "2"], ["1/4", "2"]],
    "terms": [{"expo": [1, 0], "coeff": [{"exp": "0", "coeff": "1"}]}],
}
LOOP = {"path": [["-1", "-1"], ["1", "-1"], ["1", "1"], ["-1", "1"], ["-1", "-1"]]}
NOT_JSON = "not a JSON file: Expecting value: line 1 column 1 (char 0)"


def _edited(doc: dict, **changes) -> dict:
    """The document with the changes applied; a None value deletes the key."""
    return {k: v for k, v in {**doc, **changes}.items() if v is not None}


# a nested entry of the wrong type, or a missing key, is named with what it
# should be; these printed Python's wording (a missing key as the bare quoted key)
C3_DOC = {"dim": 2, "vertices": [["0", "0"]], "rays": [{"at": 0, "dir": [1, 0]}]}
CHARGES = {"charges": [[1, 1, -1, -1]], "heights": ["0", "1", "0", "0"]}
READER_ARGV = {
    "eval": ["eval", "{f}", "--point", "1,1"],
    "validate": ["validate", "{f}"],
    "web": ["web", "--charges", "{f}"],
    "transport": ["transport", "{ff}", "--path", "{f}", "--class", "0,1"],
    "mirror": ["mirror", "{c3}", "--corrections", "{f}"],
}
NESTED = {
    "series-terms-int": (
        "eval",
        _edited(SERIES, terms=[5]),
        'malformed series JSON: expected an object with "expo" and "coeff" in "terms", got int',
    ),
    "series-coeff-int": (
        "eval",
        _edited(SERIES, terms=[{"expo": [1, 0], "coeff": [5]}]),
        'malformed series JSON: expected an object with "exp" and "coeff" in "coeff", got int',
    ),
    "series-box-str": (
        "eval",
        _edited(SERIES, box="ab"),
        """malformed series JSON: expected a list of [lo, hi] pairs in "box", got 'ab'""",
    ),
    "series-no-box": ("eval", _edited(SERIES, box=None), 'malformed series JSON: missing key "box"'),
    "diagram-ray-list": (
        "validate",
        _edited(C3_DOC, rays=[[1, 0]]),
        'malformed diagram JSON: expected an object with "at" and "dir" in "rays", got list',
    ),
    "diagram-no-vertices": ("validate", _edited(C3_DOC, vertices=None), 'malformed diagram JSON: missing key "vertices"'),
    "diagram-no-dir": ("validate", _edited(C3_DOC, rays=[{"at": 0}]), 'malformed diagram JSON: missing key "dir"'),
    "charge-no-heights": ("web", _edited(CHARGES, heights=None), 'malformed charge JSON: missing key "heights"'),
    "path-no-path": ("transport", _edited(LOOP, path=None), 'malformed path JSON: missing key "path"'),
    "corrections-no-vertex": ("mirror", [{"series": []}], 'malformed corrections JSON: entry 0: missing key "vertex"'),
}


@pytest.mark.parametrize("case", sorted(NESTED))
def test_cli_readers_name_a_bad_entry_and_a_missing_key(tmp_path, capsys, case):
    command, doc, message = NESTED[case]
    f = tmp_path / "file.json"
    f.write_text(json.dumps(doc))
    files = {"f": str(f), "ff": path("focus_focus.json"), "c3": path("c3.json")}
    assert run([word.format(**files) for word in READER_ARGV[command]]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")

INPUT_ERRORS = [
    (["validate", "{bad}"], "{bad}: " + NOT_JSON),
    (["dual", "{bad}"], "{bad}: " + NOT_JSON),
    (["mirror", "{bad}"], "{bad}: " + NOT_JSON),
    (["web", "--charges", "{bad}"], "{bad}: " + NOT_JSON),
    (["render", "{bad}"], "{bad}: " + NOT_JSON),
    (["eval", "{bad}", "--point", "0,0"], "{bad}: " + NOT_JSON),
    (["transport", "{ff}", "--path", "{bad}", "--class", "0,1"], "{bad}: " + NOT_JSON),
    (["mirror", "{c3}", "--corrections", "{bad}"], "{bad}: " + NOT_JSON),
    (["mirror", "{c3}", "--base-point=1/0,0"], "--base-point: '1/0' is not a rational number"),
    (["mirror", "{c3}", "--base-point", "1/2,x"], "--base-point: 'x' is not a rational number"),
    (["mirror", "{c3}", "-E", "1/0"], "-E: '1/0' is not a rational number"),
    (["wallcross-demo", "-E", "ten"], "-E: 'ten' is not a rational number"),
    (["eval", "{series}", "--point", "1/0,1"], "--point: '1/0' is not a rational number"),
    (["transport", "{ff}", "--path", "{loop}", "--class", "a,b"], "--class: 'a' is not an integer"),
    (["transport", "{ff}", "--path", "{loop}", "--class", "0,1/2"], "--class: '1/2' is not an integer"),
]


@pytest.mark.parametrize("argv, message", INPUT_ERRORS, ids=[" ".join(argv) for argv, _ in INPUT_ERRORS])
def test_cli_input_errors_name_their_source(tmp_path, capsys, argv, message):
    files = {"bad": tmp_path / "bad.json", "series": tmp_path / "series.json", "loop": tmp_path / "loop.json"}
    files["bad"].write_text("not json\n")
    files["series"].write_text(json.dumps(SERIES))
    files["loop"].write_text(json.dumps(LOOP))
    names = {key: str(p) for key, p in files.items()}
    names.update(ff=path("focus_focus.json"), c3=path("c3.json"))
    assert run([arg.format(**names) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message.format(**names)}\n"


NESTED_INPUTS = [
    ["validate", "{deep}"],
    ["dual", "{deep}"],
    ["mirror", "{deep}"],
    ["render", "{deep}"],
    ["transport", "{deep}", "--path", "{loop}", "--class", "0,1"],
    ["web", "--charges", "{deep}"],
    ["transport", "{ff}", "--path", "{deep}", "--class", "0,1"],
    ["transport", "{ff}", "--path", "{loop}", "--tau", "{deep}", "--class", "0,1"],
    ["mirror", "{c3}", "--corrections", "{deep}"],
    ["eval", "{deep}", "--point", "0,0"],
]


@pytest.mark.parametrize("argv", NESTED_INPUTS, ids=[" ".join(argv) for argv in NESTED_INPUTS])
def test_cli_refuses_deeply_nested_json_in_one_line(tmp_path, capsys, argv):
    """Nesting beyond the recursion limit exits 1 with one line naming the limit, not a traceback."""
    (tmp_path / "deep.json").write_text("[" * 200000 + "]" * 200000)
    (tmp_path / "loop.json").write_text(json.dumps(LOOP))
    names = {"deep": str(tmp_path / "deep.json"), "loop": str(tmp_path / "loop.json")}
    names.update(ff=path("focus_focus.json"), c3=path("c3.json"))
    assert run([arg.format(**names) for arg in argv]) == 1
    out, err = capsys.readouterr()
    limit = f"nested deeper than the recursion limit ({sys.getrecursionlimit()})"
    assert (out, err) == ("", f"error: {names['deep']}: not a JSON file: {limit}\n")
    assert "Traceback" not in err


# Documents with one value "@"; each case puts raw JSON text there.
C3_AT = {"dim": 2, "vertices": [["@", "0"]], "rays": C3_RAYS}
C3_DIR_AT = {"dim": 2, "vertices": [["0", "0"]], "rays": [{"at": 0, "dir": ["@", 0]}] + C3_RAYS[1:]}
HEIGHT_AT = {"charges": [[1, 1, -1, -1]], "heights": ["0", "@", "0", "0"]}
CHARGE_AT = {"charges": [[1, "@", -1, -1]], "heights": ["0", "1", "0", "0"]}
COEFF_AT = [{"vertex": [0, 0], "series": [{"exp": "2", "coeff": "@"}]}]
VERTEX_AT = [{"vertex": ["@", 0], "series": [{"exp": "2", "coeff": "3"}]}]
BOX_AT = dict(SERIES, box=[["@", "2"], ["1/4", "2"]])
EXPO_AT = dict(SERIES, terms=[{"expo": ["@", 0], "coeff": [{"exp": "0", "coeff": "1"}]}])
PATH_AT = {"path": [["-1", "@"], ["1", "-1"]]}
TAU_AT = {"point0": "@"}

MALFORMED_INPUTS = [
    (["validate", "{f}"], "diagram", "vertex", C3_AT, ["1e999", '"1/0"', '"1e999999"']),
    (["validate", "{f}"], "diagram", "dir", C3_DIR_AT, ["1e999", "1.5", "true"]),
    (["web", "--charges", "{f}"], "charge", "height", HEIGHT_AT, ["1e999", '"1/0"', "true"]),
    (["web", "--charges", "{f}"], "charge", "charge", CHARGE_AT, ["1e999", "1.5", "true"]),
    (["mirror", "{c3}", "--corrections", "{f}"], "corrections", "coeff", COEFF_AT, ["1e999", '"1/0"', "true"]),
    (["mirror", "{c3}", "--corrections", "{f}"], "corrections", "vertex", VERTEX_AT, ["1e999", "1.5", "true"]),
    (["eval", "{f}", "--point", "0,0"], "series", "box", BOX_AT, ["1e999", '"1/0"', "true"]),
    (["eval", "{f}", "--point", "0,0"], "series", "expo", EXPO_AT, ["1e999", "1.5", "true"]),
    (["transport", "{ff}", "--path", "{f}", "--class", "0,1"], "path", "point", PATH_AT, ["1e999", '"1/0"', "true"]),
    (["transport", "{ff}", "--path", "{loop}", "--tau", "{f}", "--class", "0,1"], "tau", "height", TAU_AT, ["1e999", '"1/0"', "false"]),
]
MALFORMED_CASES = [(argv, kind, doc, bad) for argv, kind, _, doc, values in MALFORMED_INPUTS for bad in values]
MALFORMED_IDS = [f"{kind}-{field}-{bad}" for _, kind, field, _, values in MALFORMED_INPUTS for bad in values]


@pytest.mark.parametrize("argv, kind, doc, bad", MALFORMED_CASES, ids=MALFORMED_IDS)
def test_cli_malformed_numbers_name_the_file_kind(tmp_path, capsys, argv, kind, doc, bad):
    """A non-finite, undefined or truncated number exits 1 with one line naming the kind of file."""
    (tmp_path / "case.json").write_text(json.dumps(doc).replace('"@"', bad))
    (tmp_path / "loop.json").write_text(json.dumps(LOOP))
    names = {"f": str(tmp_path / "case.json"), "loop": str(tmp_path / "loop.json")}
    names.update(ff=path("focus_focus.json"), c3=path("c3.json"))
    assert run([arg.format(**names) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: malformed {kind} JSON: ") and err.count("\n") == 1 and err.endswith("\n")


def test_every_package_error_is_a_value_error():
    """``run`` reports every refusal of the package through one ``except ValueError``.

    ``record.FrozenInstanceError`` is the exception: like its ``dataclasses``
    namesake it is an ``AttributeError``, raised only by code that assigns to
    a frozen record, never by input.
    """
    modules = [importlib.import_module(f"tropmirror.{m.name}") for m in pkgutil.iter_modules(tropmirror.__path__)]
    errors = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == module.__name__
    }
    errors.remove(FrozenInstanceError)
    assert len(errors) == 9
    assert [e.__name__ for e in errors if not issubclass(e, ValueError)] == []


def test_cli_rational_size_bound_names_the_limit(tmp_path, capsys):
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"dim": 1, "vertices": [["1e999999"]]}))
    assert run(["validate", str(f)]) == 1
    assert capsys.readouterr() == ("", "error: malformed diagram JSON: '1e999999' is over the limit of 4300 digits\n")
    f.write_text(json.dumps({"dim": 1, "vertices": [["1e4299"]]}))
    assert run(["validate", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def _p2_degree_43(tmp_path) -> tuple:
    """A charge file of local P^2 of degree 43, with heights over 8-digit denominators.

    990 points, one affine relation per point off the corner (0,0), (1,0),
    (0,1); the heights' common denominator is past the bound.
    """
    rng = random.Random(43)
    corner = [(0, 0), (1, 0), (0, 1)]
    points = corner + [(x, y) for x in range(44) for y in range(44 - x) if (x, y) not in corner]
    rows = []
    for i, (x, y) in enumerate(points[3:], 3):
        row = [1 - x - y, x, y] + [0] * (len(points) - 3)
        row[i] = -1
        rows.append(row)
    heights = [f"{rng.randrange(10**9)}/{rng.randrange(10**7, 10**8)}" for _ in points]
    f = tmp_path / "p2-43.json"
    f.write_text(json.dumps({"charges": rows, "heights": heights}))
    return f, len(points)


HEIGHTS_PAST_THE_BOUND = f"error: the common denominator of the heights is over the limit of {DIGITS} digits\n"


def test_cli_refuses_the_heights_denominator_before_the_kernel_runs(tmp_path, capsys, monkeypatch):
    f, npoints = _p2_degree_43(tmp_path)
    called = []
    monkeypatch.setattr(charges, "kernel_points", lambda q: called.append(q))
    assert run(["web", "--charges", str(f)]) == 1
    assert (npoints, called) == (990, [])
    assert capsys.readouterr() == ("", HEIGHTS_PAST_THE_BOUND)


def test_cli_refuses_the_heights_denominator_before_any_row_is_read(tmp_path, capsys, monkeypatch):
    f, _ = _p2_degree_43(tmp_path)
    reads = []
    monkeypatch.setattr(charges, "read_int", lambda x: reads.append(x))
    assert run(["web", "--charges", str(f)]) == 1
    assert (reads, capsys.readouterr()) == ([], ("", HEIGHTS_PAST_THE_BOUND))


def test_cli_names_the_heights_before_a_bad_row_entry(tmp_path, capsys):
    # both faults in one file: the row entry true is not an integer, and the
    # heights' common denominator 10^DIGITS is past the bound
    f = tmp_path / "both.json"
    f.write_text(json.dumps({"charges": [[1, 1, -1, True]], "heights": [f"1/{2**DIGITS}", "1", f"1/{5**DIGITS}", "0"]}))
    assert run(["web", "--charges", str(f)]) == 1
    assert capsys.readouterr() == ("", HEIGHTS_PAST_THE_BOUND)
    # with the heights in bounds, the row entry is named
    f.write_text(json.dumps({"charges": [[1, 1, -1, True]], "heights": ["0", "1", "0", "0"]}))
    assert run(["web", "--charges", str(f)]) == 1
    assert capsys.readouterr() == ("", "error: malformed charge JSON: expected an integer, got True\n")


@pytest.mark.parametrize("fives, code", [(DIGITS - 1, 0), (DIGITS, 1)], ids=["below", "past"])
def test_cli_common_denominator_bound_names_the_limit(tmp_path, capsys, fives, code):
    # 2^DIGITS and 5^fives are each under the size bound of a number; their
    # lcm, 2 * 10^(DIGITS-1) or 10^DIGITS, is just below or just past the bound
    # of a common denominator
    tiny, tinier = f"1/{2**DIGITS}", f"1/{5**fives}"
    charges = {"charges": [[1, 1, -1, -1]], "heights": [tiny, "1", tinier, "0"]}
    c3 = {"dim": 2, "vertices": [[tiny, tinier]], "rays": [{"at": 0, "dir": d} for d in ([1, 0], [0, 1], [-1, -1])]}
    f = tmp_path / "near.json"
    for argv, data, kind in ((["web", "--charges"], charges, "heights"), (["dual"], c3, "vertices")):
        f.write_text(json.dumps(data))
        assert run([*argv, str(f)]) == code
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == ("", f"error: the common denominator of the {kind} is over the limit of {DIGITS} digits\n")
        else:
            assert err == "" and isinstance(json.loads(out), dict)
