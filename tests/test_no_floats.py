"""Arithmetic in the package stays exact: no float enters outside SVG formatting.

The AST of every module under ``src/tropmirror`` is searched for float (and
complex) literals and for the name ``float``.  The name is allowed in
``render.py``, which formats SVG coordinates, and as the type tested by the
``isinstance`` check of ``lattice.read_int``, which refuses a JSON float with
a fractional part.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tropmirror")


def float_uses(source: str, module: str) -> list[str]:
    """Where ``source`` (the module named ``module``) writes a float literal or names ``float``."""
    tree = ast.parse(source)
    allowed: set[int] = set()
    if module == "lattice.py":
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "read_int":
                for call in ast.walk(fn):
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "isinstance":
                        allowed.update(id(arg) for arg in call.args[1:])
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"{module}:{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float" and module != "render.py" and id(node) not in allowed:
            out.append(f"{module}:{node.lineno}: name float")
    return out


def test_the_guard_sees_literals_and_the_name():
    assert float_uses("x = 0.5\ny = 2j\n", "m.py") == ["m.py:1: literal 0.5", "m.py:2: literal 2j"]
    assert float_uses("y = float(3)\n", "m.py") == ["m.py:1: name float"]
    assert float_uses("y = float(3)\n", "render.py") == []
    # only read_int's isinstance test may name float in lattice
    reader = "def read_int(v):\n    return isinstance(v, float)\n"
    assert float_uses(reader, "lattice.py") == []
    assert float_uses(reader.replace("read_int", "read_rational"), "lattice.py") == ["lattice.py:2: name float"]
    assert float_uses("def read_int(v):\n    return float(v)\n", "lattice.py") == ["lattice.py:2: name float"]


def test_the_package_writes_no_float():
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(modules) >= 10
    found = []
    for path in modules:
        with open(path, encoding="utf-8") as fh:
            found += float_uses(fh.read(), os.path.basename(path))
    assert found == []
