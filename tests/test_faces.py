"""The face walk on numbered darts against the Dart-record oracle, and the gluing refusals.

Dart 2e runs along edge row e in its canonical direction and dart 2e + 1
against it; the oracle names the same half-edge ``Dart(e, tail, head)``.  The validation axioms do not include planarity,
so a diagram whose edges or rays cross passes ``validate`` and is refused
only when its faces are glued.
"""

import json
import os
import random
from fractions import Fraction as Q

import pytest

from helpers import faces_oracle, random_smooth_web, shipped_diagrams
from tropmirror.cli import run
from tropmirror.diagram import DiagramError, TropicalDiagram, diagram_from_json, faces


# trivalent, balanced, primitive and connected, but a ray or an edge crosses
# another; each is refused at a different step of the gluing
CROSSING = [
    (
        {"dim": 2, "vertices": [["0", "0"], ["2", "2"], ["3", "2"]], "edges": [[0, 1], [1, 2]],
         "rays": [{"at": 0, "dir": [-1, 0]}, {"at": 0, "dir": [0, -1]}, {"at": 1, "dir": [0, 1]},
                  {"at": 2, "dir": [-2, -1]}, {"at": 2, "dir": [3, 1]}]},
        "face pinched at vertex 0",
    ),
    (
        {"dim": 2, "vertices": [["-3", "-3"], ["-3", "-2"], ["0", "-2"], ["-2", "-1"]],
         "edges": [[0, 1], [1, 2], [2, 3]],
         "rays": [{"at": 0, "dir": [1, -3]}, {"at": 0, "dir": [-1, 2]}, {"at": 1, "dir": [-1, 1]},
                  {"at": 2, "dir": [3, -1]}, {"at": 3, "dir": [-1, 3]}, {"at": 3, "dir": [-1, -2]}]},
        "edge 0 does not separate two faces",
    ),
    (
        {"dim": 2, "vertices": [["-3", "-1"], ["-1", "-1"], ["-3", "1"], ["1", "0"], ["-2", "2"]],
         "edges": [[0, 1], [1, 2], [2, 3], [3, 4]],
         "rays": [{"at": 0, "dir": [-1, -1]}, {"at": 0, "dir": [0, 1]}, {"at": 1, "dir": [2, -1]},
                  {"at": 2, "dir": [-5, 2]}, {"at": 3, "dir": [7, -3]}, {"at": 4, "dir": [1, 3]},
                  {"at": 4, "dir": [-4, -1]}]},
        "dual positions are inconsistent (monodromy obstruction):"
        " face 3 is at (1, 0) from vertex 0 and at (-2, -5) from vertex 2",
    ),
]


def _dart_number(diag, dart) -> int:
    """The number of the oracle's ``Dart(e, tail, head)``."""
    if dart.edge < len(diag.edges):
        forward = dart.tail == diag.edges[dart.edge][0]
    else:
        forward = dart.head == -1
    return 2 * dart.edge + (0 if forward else 1)


def _assert_same_faces(diag):
    got = faces(diag)
    want_faces, want_dart_face, want_sides, want_rotations = faces_oracle(diag)
    number = {d: _dart_number(diag, d) for d in want_dart_face}
    assert sorted(number.values()) == list(range(len(got.dart_face)))
    assert len(got.faces) == len(want_faces)
    for f, w in zip(got.faces, want_faces):
        assert f == tuple(number[d] for d in w)
    assert all(got.dart_face[number[d]] == face for d, face in want_dart_face.items())
    assert got.rotations == {v: [number[d] for d in ring] for v, ring in want_rotations.items()}
    sides = {e: (got.dart_face[2 * e + 1], got.dart_face[2 * e]) for e in range(len(diag.segments))}
    assert sides == want_sides
    return sides


def test_faces_match_the_dart_record_oracle():
    rng = random.Random(13)
    webs = [d for d in shipped_diagrams() if d.dim == 2] + [random_smooth_web(rng) for _ in range(200)]
    assert len(webs) == 204
    for diag in webs:
        sides = _assert_same_faces(diag)
        assert dict(diag.dual.edge_duality) == sides
    for data, _ in CROSSING:
        _assert_same_faces(diagram_from_json(data))


def _refusal(fn, diag) -> str:
    with pytest.raises(DiagramError) as exc:
        fn(diag)
    return str(exc.value)


def test_faces_refuse_like_the_oracle():
    origin = (Q(0), Q(0))
    shared_line = TropicalDiagram(2, (origin, (Q(1), Q(0))), ((0, 1),), ((0, (1, 0)), (1, (1, 0))))
    cases = [TropicalDiagram(1, ((Q(0),),)), TropicalDiagram(2, ()), shared_line]
    messages = [_refusal(faces, diag) for diag in cases]
    assert messages == [_refusal(faces_oracle, diag) for diag in cases]
    assert messages == [
        "face tracing requires dimension 2",
        "empty diagram has no faces",
        "two rays share a line; faces are ambiguous",
    ]


@pytest.mark.parametrize("data, message", CROSSING, ids=["pinched", "not-separating", "obstruction"])
def test_crossing_diagrams_pass_validate_and_are_refused_in_the_gluing(tmp_path, capsys, data, message):
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(data))
    assert run(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    for command in ("dual", "mirror"):
        assert run([command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
