"""A number that cannot be read is refused in one wording, from every file reader and option.

``lattice.read_int`` and ``lattice.read_rational`` word each refusal:
``expected an integer, got <value>``, ``expected a rational number, got
<value>`` or ``<value> is over the limit of 4300 digits``, the value
abbreviated as ``reprlib`` abbreviates it.  The CLI runs in-process on files
written here; each case puts one unreadable value in one number field of a
file, or gives it to one option, and checks the whole of stderr.  No refusal
may show Python's own text: a ``Fraction(...)`` repr, ``int``'s or
``Fraction``'s literal message, the integer-ratio message of a float, or the
``sys.set_int_max_str_digits()`` advice.
"""

import json
import os

import pytest

from test_render_cli import C3_RAYS, LOOP, SERIES
from tropmirror.cli import run

DIAGRAMS = os.path.join(os.path.dirname(__file__), "..", "diagrams")
FILES = {"ff": os.path.join(DIAGRAMS, "focus_focus.json"), "c3": os.path.join(DIAGRAMS, "c3.json")}

CORRECTION = {"vertex": [0, 0], "series": [{"exp": "2", "coeff": "3"}]}

# argv of each reader, the file under test as {f}
VALIDATE = ["validate", "{f}"]
WEB = ["web", "--charges", "{f}"]
PATH = ["transport", "{ff}", "--path", "{f}", "--class", "0,1"]
TAU = ["transport", "{ff}", "--path", "{loop}", "--tau", "{f}", "--class", "0,1"]
CORRECTIONS = ["mirror", "{c3}", "--corrections", "{f}"]
EVAL = ["eval", "{f}", "--point", "1,1"]

# (field, argv, the file's prefix, kind of number, document with the value at "@")
FIELDS = [
    ("diagram vertex", VALIDATE, "malformed diagram JSON: vertex: ", "rational",
     {"dim": 2, "vertices": [["@", "0"]], "rays": C3_RAYS}),
    ("diagram edge", VALIDATE, "malformed diagram JSON: edge: ", "integer",
     {"dim": 2, "vertices": [["0", "0"], ["1", "1"]], "edges": [[0, "@"]], "rays": C3_RAYS}),
    ("diagram ray direction", VALIDATE, "malformed diagram JSON: ray direction: ", "integer",
     {"dim": 2, "vertices": [["0", "0"]], "rays": [{"at": 0, "dir": ["@", 0]}] + C3_RAYS[1:]}),
    ("charge row", WEB, "malformed charge JSON: charge row: ", "integer",
     {"charges": [[1, "@", -1, -1]], "heights": ["0", "1", "0", "0"]}),
    ("charge heights", WEB, "malformed charge JSON: heights: ", "rational",
     {"charges": [[1, 1, -1, -1]], "heights": ["0", "@", "0", "0"]}),
    ("path point", PATH, "malformed path JSON: path point: ", "rational", {"path": [["-1", "@"], ["1", "-1"]]}),
    ("tau height", TAU, "malformed tau JSON: ", "rational", {"point0": "@"}),
    ("correction vertex", CORRECTIONS, "malformed corrections JSON: entry 0: correction vertex: ", "integer",
     [dict(CORRECTION, vertex=["@", 0])]),
    ("correction exp", CORRECTIONS, "malformed corrections JSON: entry 0: term: ", "rational",
     [dict(CORRECTION, series=[{"exp": "@", "coeff": "3"}])]),
    ("correction coeff", CORRECTIONS, "malformed corrections JSON: entry 0: term: ", "rational",
     [dict(CORRECTION, series=[{"exp": "2", "coeff": "@"}])]),
    ("series box", EVAL, "malformed series JSON: box interval: ", "rational",
     dict(SERIES, box=[["@", "2"], ["1/4", "2"]])),
    ("series expo", EVAL, "malformed series JSON: exponent: ", "integer",
     dict(SERIES, terms=[{"expo": ["@", 0], "coeff": [{"exp": "0", "coeff": "1"}]}])),
    ("series truncation", EVAL, "malformed series JSON: truncation: ", "rational", dict(SERIES, truncation="@")),
    ("series coefficient", EVAL, "malformed series JSON: term: ", "rational",
     dict(SERIES, terms=[{"expo": [1, 0], "coeff": [{"exp": "0", "coeff": "@"}]}])),
]

# (option, argv with the value at "@")
OPTIONS = [
    ("--point", ["eval", "{series}", "--point", "@,1"]),
    ("--base-point", ["mirror", "{c3}", "--base-point", "@,0"]),
    ("--class", ["transport", "{ff}", "--path", "{loop}", "--class", "@,1"]),
    ("-E", ["mirror", "{c3}", "-E", "@"]),
    ("-E", ["wallcross-demo", "-E", "@"]),
]
KINDS = {"integer": "an integer", "rational": "a rational number", "--class": "an integer"}

NINES = "9" * 5000
SHOWN_NINES = "'" + "9" * 12 + "..." + "9" * 13 + "'"
# (id, the value as JSON text, the reason for a given kind of number)
STRINGS = [
    ("x", "x", lambda kind: f"expected {kind}, got 'x'"),
    ("1/0", "1/0", lambda kind: f"expected {kind}, got '1/0'"),
    ("5000 nines", NINES, lambda kind: f"{SHOWN_NINES} is over the limit of 4300 digits"),
]
# JSON's Infinity is a float, not a string, so no option can give it
VALUES = [(key, json.dumps(text), reason) for key, text, reason in STRINGS]
VALUES.append(("Infinity", "Infinity", lambda kind: f"expected {kind}, got inf"))
LEAKS = ("Fraction(", "literal for", "set_int_max_str_digits", "integer ratio")


def _run(tmp_path, capsys, argv):
    names = dict(FILES, f=str(tmp_path / "case.json"))
    for name, doc in (("series", SERIES), ("loop", LOOP)):
        names[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code = run([arg.format(**names) for arg in argv])
    out, err = capsys.readouterr()
    assert not any(leak in err for leak in LEAKS), err
    return code, out, err


@pytest.mark.parametrize("text, reason", [v[1:] for v in VALUES], ids=[v[0] for v in VALUES])
@pytest.mark.parametrize("argv, prefix, kind, doc", [f[1:] for f in FIELDS], ids=[f[0] for f in FIELDS])
def test_a_file_number_is_refused_in_one_wording(tmp_path, capsys, argv, prefix, kind, doc, text, reason):
    (tmp_path / "case.json").write_text(json.dumps(doc).replace('"@"', text))
    assert _run(tmp_path, capsys, argv) == (1, "", f"error: {prefix}{reason(KINDS[kind])}\n")


@pytest.mark.parametrize("text, reason", [s[1:] for s in STRINGS], ids=[s[0] for s in STRINGS])
@pytest.mark.parametrize("option, argv", OPTIONS, ids=[" ".join(argv[:1] + [option]) for option, argv in OPTIONS])
def test_an_option_number_is_refused_in_one_wording(tmp_path, capsys, option, argv, text, reason):
    argv = [arg.replace("@", text) for arg in argv]
    kind = KINDS.get(option, KINDS["rational"])
    assert _run(tmp_path, capsys, argv) == (1, "", f"error: {option}: {reason(kind)}\n")


def test_an_edge_name_with_a_long_number_is_refused_in_the_same_wording(tmp_path, capsys):
    (tmp_path / "case.json").write_text(json.dumps({"edge" + NINES: "0"}))
    want = f"error: malformed tau JSON: {SHOWN_NINES} is over the limit of 4300 digits\n"
    assert _run(tmp_path, capsys, TAU) == (1, "", want)
