"""Each refusal's text is written at one site.

A check on what a caller hands in is written once, in the module that owns
it: the axiom gate in ``diagram``, the point reader in ``lattice``, the
truncation check in ``superpotential``.  Two sites raising one text are two
copies of one check, which drift apart.  The AST of every module under
``src/tropmirror`` is searched for ``raise X(...)``; the first argument is
reduced to its literal text, with each formatted value of an f-string and
each operand of a ``+`` that is not literal text written as ``{}``.  No text
may occur at two sites.  A first argument with no literal text at all (a
name) is not a text and is skipped.

The wording of a number that cannot be read is written in one module:
``lattice.read_int`` and ``lattice.read_rational`` word every such refusal.
No other module may form ``expected an integer``, ``expected a rational
number``, ``is not an integer`` or ``is not a rational number``, whether as
one string or pieced together from an f-string and a string it fills in.

The way a message shows a value is kept in one module too: ``lattice.shown``
and ``lattice.shown_point`` show every value, and ``lattice.printed`` refuses
a number too long to print.  No other module may import ``reprlib`` or catch
Python's digit-limit error with an ``except ValueError`` that calls
``over_limit``.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tropmirror")


def literal_text(node: ast.expr) -> str:
    """The literal text of a message expression, ``{}`` standing for each part that is not literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(literal_text(part) if isinstance(part, ast.Constant) else "{}" for part in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return literal_text(node.left) + literal_text(node.right)
    return "{}"


def refusal_sites(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per refusal text, the ``module:line`` sites that raise it."""
    sites: dict[str, list[str]] = {}
    for module, source in sorted(sources.items()):
        raises = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)]
        for node in sorted(raises, key=lambda node: node.lineno):
            if isinstance(node.exc, ast.Call) and node.exc.args:
                text = literal_text(node.exc.args[0])
                if text.replace("{}", ""):
                    sites.setdefault(text, []).append(f"{module}:{node.lineno}")
    return sites


def repeated(sources: dict[str, str]) -> list[str]:
    """``text: site, site, ...`` for each text raised at more than one site."""
    return [f"{text}: {', '.join(at)}" for text, at in sorted(refusal_sites(sources).items()) if len(at) > 1]


def test_the_guard_reduces_a_message_to_its_literal_text():
    sources = {
        "a.py": (
            'raise E("plain")\n'
            'raise E(f"{what} dimension mismatch")\n'
            'raise E("fails: " + ", ".join(xs))\n'
            "raise E(MESSAGE)\n"
            "raise\n"
            "raise E\n"
            'raise E() from None\n'
        ),
        "b.py": 'if x:\n    raise F(f"{kind} dimension mismatch", 3)\nraise E("fails: " + y + "!")\n',
    }
    assert refusal_sites(sources) == {
        "plain": ["a.py:1"],
        "{} dimension mismatch": ["a.py:2", "b.py:2"],
        "fails: {}": ["a.py:3"],
        "fails: {}!": ["b.py:3"],
    }
    assert repeated(sources) == ["{} dimension mismatch: a.py:2, b.py:2"]


def test_each_refusal_is_written_once():
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(modules) >= 10
    sources = {}
    for path in modules:
        with open(path, encoding="utf-8") as fh:
            sources[os.path.basename(path)] = fh.read()
    assert len(refusal_sites(sources)) >= 77
    assert repeated(sources) == []


NUMBER_WORDINGS = ("expected an integer", "expected a rational number", "is not an integer", "is not a rational number")


def formed_wordings(sources: dict[str, str]) -> list[str]:
    """``module:line: wording`` for each number wording that a module other than ``lattice.py`` forms.

    The texts of a module are its string constants and the literal texts of
    its f-strings and ``+`` joins, docstrings left out.  A text forms a
    wording if it contains it, or does once every ``{}`` in it is filled with
    one of the module's string constants: ``f"{option}: {text!r} is not
    {kind}"`` with ``kind = "an integer"`` forms ``is not an integer``.
    """
    found = set()
    for module, source in sources.items():
        if module == "lattice.py":
            continue
        tree = ast.parse(source)
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        joins = (ast.JoinedStr, ast.BinOp)
        texts = [
            node
            for node in ast.walk(tree)
            if id(node) not in docstrings
            and (isinstance(node, joins) or isinstance(node, ast.Constant) and isinstance(node.value, str))
        ]
        fills = [node.value for node in texts if isinstance(node, ast.Constant)]
        for node in texts:
            text = literal_text(node)
            filled = [text] + [text.replace("{}", fill) for fill in fills]
            found.update(f"{module}:{node.lineno}: {w}" for w in NUMBER_WORDINGS if any(w in t for t in filled))
    return sorted(found)


def test_the_scan_finds_a_wording_formed_in_pieces():
    sources = {
        "lattice.py": 'kind = "an integer"\nraise ValueError(f"expected {kind}, got {value!r}")\n',
        "a.py": (
            "def read(option, text, integer):\n"
            '    """Refuse a text that is not a rational number: expected a rational number."""\n'
            '    kind = "an integer" if integer else "a rational number"\n'
            '    raise ValueError(f"{option}: {text!r} is not {kind}")\n'
        ),
        "b.py": 'raise E("expected a rational number, got " + repr(value))\n',
        "c.py": 'raise E(f"{what}: expected {shape}, got {value!r}")\nshape = "a list or a tuple"\n',
    }
    assert formed_wordings(sources) == [
        "a.py:4: is not a rational number",
        "a.py:4: is not an integer",
        "b.py:1: expected a rational number",
    ]


def test_only_lattice_words_a_number_that_cannot_be_read():
    sources = {}
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            sources[os.path.basename(path)] = fh.read()
    assert "lattice.py" in sources
    assert formed_wordings(sources) == []


def show_rule_sites(sources: dict[str, str]) -> list[str]:
    """``module:line`` of each ``reprlib`` import and ``except ValueError`` calling ``over_limit`` outside lattice."""
    found = []
    for module, source in sorted(sources.items()):
        if module == "lattice.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                hit = any(alias.name == "reprlib" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "reprlib"
            elif isinstance(node, ast.ExceptHandler):
                calls = [n.func for n in ast.walk(node) if isinstance(n, ast.Call)]
                called = {getattr(f, "id", getattr(f, "attr", None)) for f in calls}
                hit = isinstance(node.type, ast.Name) and node.type.id == "ValueError" and "over_limit" in called
            else:
                hit = False
            if hit:
                found.append((module, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_the_show_rule_scan_finds_a_second_way_to_show_a_value():
    sources = {
        "lattice.py": "import reprlib\ntry:\n    s = str(n)\nexcept ValueError:\n    raise E(over_limit('n'))\n",
        "a.py": "import reprlib\nfrom reprlib import repr\nimport os, reprlib\n",
        "b.py": (
            "try:\n    s = str(n)\nexcept ValueError:\n    s = over_limit('n')\n"
            "try:\n    s = str(n)\nexcept ValueError:\n    raise E(lattice.over_limit('n')) from None\n"
            "try:\n    s = str(n)\nexcept ValueError:\n    s = '?'\n"
            "try:\n    s = str(n)\nexcept TypeError:\n    s = over_limit('n')\n"
        ),
    }
    assert show_rule_sites(sources) == ["a.py:1", "a.py:2", "a.py:3", "b.py:3", "b.py:7"]


def test_only_lattice_shows_a_value_and_refuses_a_number_too_long_to_print():
    sources = {}
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            sources[os.path.basename(path)] = fh.read()
    assert "lattice.py" in sources
    assert show_rule_sites(sources) == []
