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
    assert len(refusal_sites(sources)) >= 80
    assert repeated(sources) == []
