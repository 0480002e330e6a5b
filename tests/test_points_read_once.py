"""A list's entries are read as a point by ``lattice.as_point``, not by hand.

A comprehension that calls ``read_int`` or ``read_rational`` on its own loop
variable reads a list's entries one by one, which is what ``as_point`` does
once for every file reader and every entry point: it also refuses a value
that is not a list or a tuple and names the field.  The AST of every module
under ``src/tropmirror`` other than ``lattice.py`` is searched for such a
call.  A call on anything else is allowed: an object's key
(``read_rational(item["exp"])``), or one name of an unpacked target, which
reads a mapping's items (``read_rational(v) for k, v in items``).
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tropmirror")
READERS = {"read_int", "read_rational"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def hand_read_sites(sources: dict[str, str]) -> list[str]:
    """``module:line`` of each comprehension that reads its loop variable with a reader, outside ``lattice.py``."""
    sites = []
    for module, source in sorted(sources.items()):
        if module == "lattice.py":
            continue
        comprehensions = [node for node in ast.walk(ast.parse(source)) if isinstance(node, COMPREHENSIONS)]
        for node in sorted(comprehensions, key=lambda node: node.lineno):
            names = {gen.target.id for gen in node.generators if isinstance(gen.target, ast.Name)}
            if any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id in READERS
                and call.args
                and isinstance(call.args[0], ast.Name)
                and call.args[0].id in names
                for call in ast.walk(node)
            ):
                sites.append(f"{module}:{node.lineno}")
    return sites


def test_the_scan_finds_a_hand_read_list_and_allows_the_rest():
    sources = {
        "a.py": (
            "xs = [read_rational(h) for h in read_list(data, 'heights')]\n"
            "rows = tuple(tuple(read_int(x) for x in r) for r in charges)\n"
            "terms = [(read_rational(item['exp']), read_rational(item['coeff'])) for item in data]\n"
            "taus = {k: read_rational(v) for k, v in items}\n"
            "ys = [int(y) for y in ys]\n"
            "zs = {read_int(z) for z in zs}\n"
        ),
        "lattice.py": "p = tuple(read_rational(c) for c in p)\n",
    }
    assert hand_read_sites(sources) == ["a.py:1", "a.py:2", "a.py:6"]


def test_no_module_reads_a_list_of_numbers_by_hand():
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(modules) >= 10
    sources = {}
    for path in modules:
        with open(path, encoding="utf-8") as fh:
            sources[os.path.basename(path)] = fh.read()
    assert "lattice.py" in sources
    assert hand_read_sites(sources) == []
