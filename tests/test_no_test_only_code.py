"""The package holds no code that only the tests use.

The AST of every module under ``src/tropmirror`` is searched for its
top-level functions, classes and assignments.  Each must be named somewhere
else in the package outside ``__init__.py`` (as a name, an attribute or an
imported name, outside its own definition), or be read by the benchmark:
wrapped by ``bench/tracing.py`` (``TRACED``) or looked up by the bench
scripts (``BENCH_READS`` in ``test_bench_contract.py``).  Listing a name in
``tropmirror.__all__`` does not count as a use.  Dunder names such as
``__version__`` and ``__all__`` are read by Python itself and are exempt.
Code that only the tests call belongs in ``tests/helpers.py``.
"""

import ast
import glob
import os

from test_bench_contract import BENCH_READS, tracing

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tropmirror")


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a def, a class or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _named(stmt: ast.stmt) -> set[str]:
    """Every name a statement mentions, as a name, an attribute or an imported name."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def unreferenced(sources: dict[str, str], bench_reads: set[str]) -> list[str]:
    """``module:line: name`` for each top-level definition nothing else in ``sources`` names.

    What ``__init__.py`` names does not count: re-exporting a name is not a use.
    """
    statements = [(module, stmt) for module, text in sorted(sources.items()) for stmt in ast.parse(text).body]
    named = [set() if module == "__init__.py" else _named(stmt) for module, stmt in statements]
    out = []
    for i, (module, stmt) in enumerate(statements):
        for name in _defined(stmt):
            if name.startswith("__") and name.endswith("__") or name in bench_reads:
                continue
            if not any(name in names for j, names in enumerate(named) if j != i):
                out.append(f"{module}:{stmt.lineno}: {name}")
    return out


def test_the_guard_sees_definitions_nothing_else_names():
    sources = {
        "a.py": "def used():\n    return 1\n\ndef alone(n):\n    return alone(n - 1)\n\nK = 3\nL: int = 4\n",
        "b.py": "from .a import used\n\nclass C:\n    x = 1\n\nprint(used(), C, M.K)\n",
    }
    # alone is named only in its own body, L nowhere, M nowhere else; C.x is not top-level
    assert unreferenced(sources, set()) == ["a.py:4: alone", "a.py:8: L"]
    assert unreferenced(sources, {"alone"}) == ["a.py:8: L"]
    assert unreferenced({"c.py": "__all__ = []\nX, (Y, Z) = 1, (2, 3)\nprint(Y)\n"}, set()) == ["c.py:2: X", "c.py:2: Z"]


def test_the_guard_does_not_count_a_re_export_as_a_use():
    sources = {
        "__init__.py": "from .a import kept, read, shown\n\n__all__ = ['kept', 'read', 'shown']\n",
        "a.py": "def kept():\n    return 1\n\ndef read():\n    return 2\n\ndef shown():\n    return kept()\n",
    }
    # kept is called by shown; read and shown are only re-exported, unless the bench reads them
    assert unreferenced(sources, set()) == ["a.py:4: read", "a.py:7: shown"]
    assert unreferenced(sources, {"read", "shown"}) == []


def test_the_package_holds_no_test_only_code():
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(modules) >= 10
    sources = {}
    for path in modules:
        with open(path, encoding="utf-8") as fh:
            sources[os.path.basename(path)] = fh.read()
    bench_reads = {fn for fns in tracing.TRACED.values() for fn in fns}
    bench_reads |= {dotted.split(".")[0] for names in BENCH_READS.values() for dotted in names}
    assert unreferenced(sources, bench_reads) == []
