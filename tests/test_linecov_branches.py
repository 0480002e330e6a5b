"""``tools/linecov.py --branches`` on a small module: the directions it sees and the kinds it names harmless.

The module is traced in this process with the tool's own tracer, which is
set for the two calls only and the previous tracer put back.  The opcode
patterns are CPython 3.11's, as the tool says.
"""

import importlib.util
import os
import sys
from collections import Counter

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
import linecov  # noqa: E402

pytestmark = pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the opcode patterns are CPython 3.11's")

SOURCE = """
def harmless(stack, xs, path):
    while stack:
        stack.pop()
    try:
        int("x")
    except ValueError:
        pass
    with open(path) as fh:
        fh.read()
    first = next(x for x in xs if x > 0)
    return first if first > 2 else None


def long_body(flag):
    if flag:
        x = 0
""" + "        x += 1\n" * 200 + """    return 1
"""


def test_branches_sees_every_direction_and_counts_the_harmless_kinds(tmp_path):
    package = tmp_path / "package"
    package.mkdir()
    path = package / "module.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("linecov_module", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tables = linecov.branch_tables(str(package))
    # the jump over the long body needs an EXTENDED_ARG, whose event stands for the jump
    assert any(table.alias for table in tables.values())
    tracer = linecov.BranchTracer(str(package), tables)
    previous = sys.gettrace()
    sys.settrace(tracer.call)
    try:
        module.harmless([1, 2], [-1, 3], str(path))
        module.harmless([1], [1], str(path))
        module.long_body(True)
        module.long_body(False)
    finally:
        sys.settrace(previous)
    kinds = Counter(table.harmless(*direction) for table in tables.values() for direction in table.unseen)
    assert kinds == {"first loop entry": 1, "except no-match": 1, "with-exit": 2, "unexhausted next() generator": 1}
