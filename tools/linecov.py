"""List every executable line of ``src/tropmirror`` that the test suite never runs.

Usage, from the repository root::

    PYTHONPATH=src python tools/linecov.py [pytest arguments]
    PYTHONPATH=src python tools/linecov.py --branches [pytest arguments]

It runs pytest in this process (by default on the whole suite, as Tier-1
does) under a line tracer, ``sys.settrace`` and ``threading.settrace``, and
then prints ``path:line: source`` for each line that never ran, and a last
line with the counts.  A line is executable when a code object compiled from
the module lists it in ``co_lines()``.  It exits 1 if any such line never
ran or pytest failed, and 0 otherwise.  There is no allowlist and no
exclusion pragma.  The tracer is dropped from a code object once each of its
lines has run, but the suite still takes several times longer than without
it.  Only the standard library and pytest are used.

``--branches`` counts branch directions instead of lines.  Every conditional
jump of the package's bytecode (``POP_JUMP_*``, ``JUMP_IF_*`` and
``FOR_ITER``) has two directions, the jump and the fall-through; a line
tracer cannot see them, as both arms of a one-line ``x if c else y`` or of
an ``and`` chain sit on one line.  Opcodes are traced
(``frame.f_trace_opcodes``) only in code objects that still have a direction
not taken, and an ``EXTENDED_ARG`` event is read as the jump it prefixes,
which CPython does not report apart.  Code objects are matched by file,
qualified name, first line and bytecode, so a module imported twice counts
once.  A direction never taken is harmless when its opcode pattern is one of
four kinds, which are counted, not listed:

* a ``with``-exit: the jump after ``WITH_EXCEPT_START``, which runs only
  when the block raises, and jumps only when ``__exit__`` swallows it;
* an ``except`` no-match: the jump after ``CHECK_EXC_MATCH`` to the next
  handler, when the exception always matches;
* a first loop-entry test: a ``while`` loop's test before its first pass,
  jumping past the loop, when the loop is always entered;
* an unexhausted ``next()`` generator: the exhausted direction of the
  ``FOR_ITER`` of a generator expression handed to ``next()``.

Every other direction never taken is printed as ``path:line: <opcode> never
jumps`` (or ``never falls through``) with its source line, and the tool
exits 1 if there is one.  The patterns are those of CPython 3.11's bytecode.
"""

from __future__ import annotations

import dis
import os
import sys
import threading
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tropmirror")


def code_objects(path: str):
    """Every code object compiled from a module, the module's own first."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    while stack:
        code = stack.pop()
        yield code
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))


def executable_lines(path: str) -> set[int]:
    """The lines of a module that some code object compiled from it lists in ``co_lines()``."""
    return {line for code in code_objects(path) for _, _, line in code.co_lines() if line}


class Tracer:
    """Records the lines run in the package's files, one set per file."""

    def __init__(self, package: str):
        self.package = os.path.realpath(package) + os.sep
        self.ran: dict[str, set[int]] = {}  # real path -> the lines run in it
        self.codes: dict = {}  # code object -> (its file's lines run, its own lines not yet run)
        self.files: dict[str, str | None] = {}  # co_filename -> real path in the package, or None

    def _path(self, filename: str) -> str | None:
        if filename not in self.files:
            real = os.path.realpath(filename)
            self.files[filename] = real if real.startswith(self.package) else None
        return self.files[filename]

    def call(self, frame, event, arg):
        code = frame.f_code
        if code not in self.codes:
            path = self._path(code.co_filename)
            if path is None:
                return None
            lines = {line for _, _, line in code.co_lines() if line}
            self.codes[code] = (self.ran.setdefault(path, set()), lines)
        ran, pending = self.codes[code]
        if not pending:
            return None

        def line(frame, event, arg):
            ran.add(frame.f_lineno)
            pending.discard(frame.f_lineno)
            if not pending:
                frame.f_trace = None
                return None
            return line

        return line(frame, event, arg)


# --- branch directions --------------------------------------------------------


# the harmless kinds of an untaken direction, which are counted, not listed
KINDS = ("with-exit", "except no-match", "first loop entry", "unexhausted next() generator")


def code_key(path: str, code) -> tuple:
    """What identifies a code object across imports of its module."""
    return path, code.co_qualname, code.co_firstlineno, code.co_code


def _conditional(ins) -> bool:
    return ins.opname.startswith(("POP_JUMP_", "JUMP_IF_")) or ins.opname == "FOR_ITER"


class Branches:
    """The conditional jumps of one code object, and the directions of them not yet taken."""

    def __init__(self, code, to_next: bool):
        self.ins = list(dis.get_instructions(code))
        self.to_next = to_next  # a generator expression that is handed to next()
        self.at = {x.offset: i for i, x in enumerate(self.ins)}
        self.alias = {}  # EXTENDED_ARG offset -> offset of the instruction it prefixes
        self.unseen = set()  # (jump offset, offset run next)
        for i, x in enumerate(self.ins):
            if x.opname == "EXTENDED_ARG":
                j = i
                while self.ins[j].opname == "EXTENDED_ARG":
                    j += 1
                self.alias[x.offset] = self.ins[j].offset
            elif _conditional(x):
                self.unseen.update({(x.offset, x.argval), (x.offset, self.ins[i + 1].offset)})
        self.jumps = {jump for jump, _ in self.unseen}
        self.total = len(self.unseen)

    def harmless(self, jump: int, dest: int) -> str | None:
        """The harmless kind of an untaken direction, by its opcode pattern, or None."""
        i = self.at[jump]
        x, before = self.ins[i], self.ins[i - 1].opname
        jumps = dest == x.argval
        if before == "WITH_EXCEPT_START":
            return "with-exit"
        if before == "CHECK_EXC_MATCH" and jumps:
            return "except no-match"
        if jumps and x.argval > jump:
            # a while loop: the test before the first pass jumps past the
            # loop, whose last instruction is the test after each pass,
            # jumping back to the first instruction of the body
            last = self.ins[self.at[x.argval] - 1]
            if _conditional(last) and last.argval == self.ins[i + 1].offset:
                return "first loop entry"
        if x.opname == "FOR_ITER" and jumps and self.to_next:
            return "unexhausted next() generator"
        return None


def handed_to_next(code) -> set:
    """The generator expressions that ``code`` hands straight to ``next()``."""
    ins = list(dis.get_instructions(code))
    out = set()
    for i, x in enumerate(ins):
        if x.opname == "LOAD_CONST" and getattr(x.argval, "co_name", None) == "<genexpr>":
            j = i - 1
            while j > 0 and ins[j].opname in ("LOAD_CLOSURE", "BUILD_TUPLE"):
                j -= 1
            if ins[j].opname == "LOAD_GLOBAL" and ins[j].argval == "next":
                out.add(x.argval)
    return out


def branch_tables(package: str) -> dict:
    """Per code object of the package with a conditional jump, its ``Branches``, by ``code_key``."""
    tables = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(package, name))
            codes = list(code_objects(path))
            to_next = set().union(*map(handed_to_next, codes))
            for code in codes:
                table = Branches(code, code in to_next)
                if table.total:
                    tables[code_key(path, code)] = table
    return tables


class BranchTracer(Tracer):
    """Records the branch directions taken in the package's code objects."""

    def __init__(self, package: str, tables: dict):
        super().__init__(package)
        self.tables = tables

    def call(self, frame, event, arg):
        code = frame.f_code
        if code not in self.codes:
            path = self._path(code.co_filename)
            self.codes[code] = None if path is None else self.tables.get(code_key(path, code))
        table = self.codes[code]
        if table is None or not table.unseen:
            return None
        frame.f_trace_opcodes = True
        last = None

        def opcode(frame, event, arg):
            nonlocal last
            if event != "opcode":
                return opcode
            here = frame.f_lasti
            if last in table.jumps:
                table.unseen.discard((last, here))
                if not table.unseen:
                    frame.f_trace_opcodes = False
                    return None
            last = table.alias.get(here, here)
            return opcode

        return opcode


def report_branches(tables: dict) -> int:
    """Print each untaken direction that is not harmless, then the counts; returns how many were printed."""
    kinds = Counter()
    other = []
    for (path, *_), table in tables.items():
        for jump, dest in table.unseen:
            kind = table.harmless(jump, dest)
            if kind:
                kinds[kind] += 1
            else:
                x = table.ins[table.at[jump]]
                other.append((path, x.positions.lineno, jump, x.opname, "jumps" if dest == x.argval else "falls through"))
    sources = {}
    for path, line, _, opname, way in sorted(other):
        if path not in sources:
            with open(path, encoding="utf-8") as fh:
                sources[path] = fh.read().splitlines()
        print(f"{os.path.relpath(path, ROOT)}:{line}: {opname} never {way}: {sources[path][line - 1].strip()}")
    total = sum(t.total for t in tables.values())
    untaken = sum(len(t.unseen) for t in tables.values())
    harmless = ", ".join(f"{kinds[k]} {k}" for k in KINDS)
    print(
        f"linecov: {total - untaken} of {total} branch directions in src/tropmirror taken;"
        f" untaken: {harmless}, {len(other)} other"
    )
    return len(other)


def main(argv: list[str]) -> int:
    if "tropmirror" in sys.modules:
        raise SystemExit("linecov: tropmirror was imported before tracing began")
    import pytest

    branches = argv[:1] == ["--branches"]
    if branches:
        argv = argv[1:]
        tables = branch_tables(PACKAGE)
        tracer = BranchTracer(PACKAGE, tables)
    else:
        tracer = Tracer(PACKAGE)
    threading.settrace(tracer.call)
    sys.settrace(tracer.call)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if branches:
        return 1 if report_branches(tables) or status != 0 else 0
    missed = total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        total += len(lines)
        unrun = sorted(lines - tracer.ran.get(os.path.realpath(path), set()))
        missed += len(unrun)
        if unrun:
            with open(path, encoding="utf-8") as fh:
                source = fh.read().splitlines()
            for line in unrun:
                print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"linecov: {total - missed} of {total} executable lines in src/tropmirror ran, {missed} never ran")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
