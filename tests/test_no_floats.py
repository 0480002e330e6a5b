"""Arithmetic in the package stays exact: no float enters outside SVG formatting.

The AST of every module under ``src/tropmirror`` is searched for float (and
complex) literals and for the name ``float``.  The name is allowed only in
``render.py``, which formats SVG coordinates: ``lattice.read_int`` refuses a
JSON float with a fractional part by comparing it with its ``int``, as it
does any other number, without naming the type.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tropmirror")


def float_uses(source: str, module: str) -> list[str]:
    """Where ``source`` (the module named ``module``) writes a float literal or names ``float``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"{module}:{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float" and module != "render.py":
            out.append(f"{module}:{node.lineno}: name float")
    return out


def test_the_guard_sees_literals_and_the_name():
    assert float_uses("x = 0.5\ny = 2j\n", "m.py") == ["m.py:1: literal 0.5", "m.py:2: literal 2j"]
    assert float_uses("y = float(3)\n", "m.py") == ["m.py:1: name float"]
    assert float_uses("y = float(3)\n", "render.py") == []
    # no reader may name float, not even in an isinstance test
    reader = "def read_int(v):\n    return isinstance(v, float)\n"
    assert float_uses(reader, "lattice.py") == ["lattice.py:2: name float"]


def test_the_package_writes_no_float():
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(modules) >= 10
    found = []
    for path in modules:
        with open(path, encoding="utf-8") as fh:
            found += float_uses(fh.read(), os.path.basename(path))
    assert found == []
