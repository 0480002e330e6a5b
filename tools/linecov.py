"""List every executable line of ``src/tropmirror`` that the test suite never runs.

Usage, from the repository root::

    PYTHONPATH=src python tools/linecov.py [pytest arguments]

It runs pytest in this process (by default on the whole suite, as Tier-1
does) under a line tracer, ``sys.settrace`` and ``threading.settrace``, and
then prints ``path:line: source`` for each line that never ran, and a last
line with the counts.  A line is executable when a code object compiled from
the module lists it in ``co_lines()``.  It exits 1 if any such line never
ran or pytest failed, and 0 otherwise.  There is no allowlist and no
exclusion pragma.  The tracer is dropped from a code object once each of its
lines has run, but the suite still takes several times longer than without
it.  Only the standard library and pytest are used.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tropmirror")


def executable_lines(path: str) -> set[int]:
    """The lines of a module that some code object compiled from it lists in ``co_lines()``."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


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


def main(argv: list[str]) -> int:
    if "tropmirror" in sys.modules:
        raise SystemExit("linecov: tropmirror was imported before tracing began")
    import pytest

    tracer = Tracer(PACKAGE)
    threading.settrace(tracer.call)
    sys.settrace(tracer.call)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
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
