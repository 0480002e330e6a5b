"""How a tau file may spell an edge, through ``tropmirror transport --tau``.

A name is read as its kind (``edge``, ``ray`` or ``point``) followed, after
surrounding whitespace, by an optional sign and ASCII digits, so ``edge01``,
``ray+1`` and ``edge 1`` name edge1 and ray1, and two spellings of one edge
are one key, the later value winning.  A name of no edge of the diagram
exits 1, and so does one with no kind or with anything else after it
(``edge1_0``, non-ASCII digits).  The web is local P² (``diagrams/kp2.json``):
edges edge0..edge2 and rays ray0..ray2.  Each path crosses one cut only when
that cut is raised to 2, above the path's height 1, so a height that is read
changes the result.
"""

import json
import os
from fractions import Fraction as Q

import pytest

from helpers import charge_ladder_webs
from tropmirror.cli import run
from tropmirror.diagram import diagram_to_json

KP2 = os.path.join(os.path.dirname(__file__), "..", "diagrams", "kp2.json")
ACROSS = {
    "edge1": [["1", "1/2", "1"], ["1", "2", "1"]],
    "ray1": [["-6", "-3", "1"], ["-5", "-5", "1"]],
}


def _transport(tmp_path, capsys, edge: str, tau, diagram: str = KP2, path=None) -> tuple:
    path_file, tau_file = tmp_path / "path.json", tmp_path / "tau.json"
    path_file.write_text(json.dumps({"path": path or ACROSS[edge]}))
    # a list of pairs keeps duplicate keys, which a dict would merge
    tau_file.write_text("{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in tau) + "}")
    code = run(["transport", diagram, "--path", str(path_file), "--class", "1,-1,1", "--tau", str(tau_file)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("spelling, edge", [("edge01", "edge1"), ("edge 1", "edge1"), ("ray+1", "ray1")])
def test_other_spellings_read_as_the_canonical_name(tmp_path, capsys, spelling, edge):
    raised = _transport(tmp_path, capsys, edge, [(edge, "2")])
    assert raised[0] == 0 and raised != _transport(tmp_path, capsys, edge, [])
    assert _transport(tmp_path, capsys, edge, [(spelling, "2")]) == raised


@pytest.mark.parametrize("name", ["edge-1", "ray7", "point0"])
def test_names_of_no_edge_are_refused(tmp_path, capsys, name):
    assert _transport(tmp_path, capsys, "edge1", [(name, "2")]) == (1, "", f"error: tau defined on a non-edge {name}\n")


def test_a_name_with_no_kind_is_malformed(tmp_path, capsys):
    message = "error: malformed tau JSON: cannot parse edge reference 'foo'\n"
    assert _transport(tmp_path, capsys, "edge1", [("foo", "2")]) == (1, "", message)


@pytest.mark.parametrize("name", ["edge1_0", "ray\u0663"])
def test_a_number_that_is_not_a_sign_and_ascii_digits_is_malformed(tmp_path, capsys, name):
    # int() would read both: 1_0 as 10, and the Arabic-Indic digit three as 3
    message = f"error: malformed tau JSON: cannot parse edge reference {name!r}\n"
    assert _transport(tmp_path, capsys, "edge1", [(name, "2")]) == (1, "", message)


def test_a_digit_group_underscore_does_not_raise_another_cut(tmp_path, capsys):
    # on a web with an edge10, edge1_0 is not read as its name
    web = next(w for w in charge_ladder_webs(1) if len(w.edges) >= 11)
    diagram = tmp_path / "web.json"
    diagram.write_text(json.dumps(diagram_to_json(web)))
    # a short path at height 1 across the middle of edge10
    anchor, d, end = web.segments[10]
    mid = [a + end * c / 2 for a, c in zip(anchor, d)]
    eps = Q(1, 10**6)
    across = [[str(mid[0] + s * eps * d[1]), str(mid[1] - s * eps * d[0]), "1"] for s in (1, -1)]
    raised = _transport(tmp_path, capsys, "edge10", [("edge10", "2")], str(diagram), across)
    assert raised[0] == 0 and raised != _transport(tmp_path, capsys, "edge10", [], str(diagram), across)
    message = "error: malformed tau JSON: cannot parse edge reference 'edge1_0'\n"
    assert _transport(tmp_path, capsys, "edge10", [("edge1_0", "2")], str(diagram), across) == (1, "", message)


@pytest.mark.parametrize("first, later", [("edge1", "edge01"), ("edge01", "edge1")])
def test_the_later_of_two_spellings_wins(tmp_path, capsys, first, later):
    results = []
    for early, late in (("-5", "2"), ("2", "-5")):
        want = _transport(tmp_path, capsys, "edge1", [("edge1", late)])
        assert _transport(tmp_path, capsys, "edge1", [(first, early), (later, late)]) == want
        results.append(want)
    assert results[0] != results[1]
