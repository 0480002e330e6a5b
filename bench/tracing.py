"""Spans around the program's public layer functions, recorded from outside.

``Tracer.install`` replaces each function in ``TRACED`` at every binding site
in the loaded ``tropmirror.*`` modules: the defining module, every module that
imported it with ``from ... import``, and the package namespace.  Imports
made inside functions read the defining module at call time, so they see the
wrapper too.  ``Tracer.uninstall`` puts the originals back.

A span is ``[name, parent span, op, start, end]``.  Spans are recorded only
while ``active`` is set, which the benchmark does around each timed op, so
set-up and output checks leave no spans.  A span's self time is its duration
minus the durations of its child spans.

``lattice`` is not wrapped: its helpers are called per vector, so a span
around each call would mostly measure the tracer.  Its time shows up as self
time of the callers.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Optional

TRACED = {
    "charges": ("kernel_points", "regular_subdivision", "web_from_subdivision"),
    "diagram": ("validate", "faces", "dual_subdivision", "is_smooth", "face_heights", "locate_face"),
    "monodromy": ("edge_covector", "build_dual_graph"),
    "affine": ("build_cut_presentation", "chamber_of", "transport_covector"),
    "mirror": ("superpotential", "normalize_presentation"),
    "analytic": ("wall_cross", "series_mul", "eval_series", "focus_focus_demo"),
    "novikov": ("nov_add", "nov_mul", "nov_inv"),
    "render": ("render",),
    "cli": ("run",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

NAME, PARENT, OP, START, END = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op: Optional[int] = None
        # name -> callback(args, result, span), run after the span has closed
        self.observers: dict[str, Callable] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, self.op, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            observer = self.observers.get(name)
            if observer is not None:
                observer(args, result, span)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for mod, fns in TRACED.items():
            module = sys.modules[f"tropmirror.{mod}"]
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        for modname, module in list(sys.modules.items()):
            if modname != "tropmirror" and not modname.startswith("tropmirror."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def self_times(spans: list[list], first: int, last: int) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self seconds) over ``spans[first:last]``.

    The range must hold whole ops, so that every parent of a span in it is in
    it too.
    """
    child = {}
    for span in spans[first:last]:
        if span[PARENT] >= 0:
            child[span[PARENT]] = child.get(span[PARENT], 0.0) + span[END] - span[START]
    out = {name: (0, 0.0) for name in SPAN_NAMES}
    for i in range(first, last):
        span = spans[i]
        calls, total = out[span[NAME]]
        out[span[NAME]] = (calls + 1, total + span[END] - span[START] - child.get(i, 0.0))
    return out


def calls_per_op(spans: list[list], name: str, first: int, last: int) -> dict[int, int]:
    """How often ``name`` ran inside each op of ``spans[first:last]``."""
    counts: dict[int, int] = {}
    for span in spans[first:last]:
        if span[NAME] == name:
            counts[span[OP]] = counts.get(span[OP], 0) + 1
    return counts
