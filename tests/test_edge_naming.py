"""Edges are named in one module: ``diagram.py``.

Every layer refers to an edge by its row in the diagram's edge table.  Only
``TropicalDiagram.edge_name`` writes a row's name (``edge3``, ``ray1``,
``point0``), and only ``parse_edge_name`` reads a tau file's spelling of one,
both in ``diagram.py``.  The AST of every other module under
``src/tropmirror`` is searched for an f-string in which the word ``edge``,
``ray`` or ``point`` is followed directly by a formatted value.
"""

import ast
import glob
import os
import re

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tropmirror")
NAME_PREFIX = re.compile(r"(?<![A-Za-z_])(edge|ray|point)$")


def edge_names_built(source: str, module: str) -> list[str]:
    """Where ``source`` (the module named ``module``) builds an edge name in an f-string."""
    if module == "diagram.py":
        return []
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.JoinedStr):
            for text, value in zip(node.values, node.values[1:]):
                if (
                    isinstance(text, ast.Constant)
                    and isinstance(value, ast.FormattedValue)
                    and NAME_PREFIX.search(text.value)
                ):
                    out.append(f"{module}:{node.lineno}: {text.value!r} then a value")
    return out


def test_the_guard_sees_edge_names_and_nothing_else():
    assert edge_names_built('a = f"edge{e}"\nb = f"ray{e - k}"\n', "m.py") == [
        "m.py:1: 'edge' then a value",
        "m.py:2: 'ray' then a value",
    ]
    assert edge_names_built('m = f"the cut of point{i} at {p}"\n', "m.py") == ["m.py:1: 'the cut of point' then a value"]
    assert edge_names_built('a = f"edge {k} of {n}"\nb = f"endpoint{x}"\nc = f"v{i}"\n', "m.py") == []
    assert edge_names_built('a = f"edge{e}"\n', "diagram.py") == []


def test_only_the_diagram_module_names_edges():
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(modules) >= 10
    found = []
    for path in modules:
        with open(path, encoding="utf-8") as fh:
            found += edge_names_built(fh.read(), os.path.basename(path))
    assert found == []
