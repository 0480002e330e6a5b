"""Deterministic SVG and DOT rendering of diagrams and dual subdivisions.

Same input, byte-identical output: no timestamps, fixed ordering, exact
rational coordinates formatted once.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Optional

from .diagram import TropicalDiagram
from .dual import DualSubdivision
from .lattice import printed

Q = Fraction

RAY_LENGTH = Q(3)
SCALE = 40
MARGIN = 60


class RenderError(ValueError):
    pass


def _fmt(x: Fraction) -> str:
    f = float(x)
    return f"{f:.4f}".rstrip("0").rstrip(".")


def render(diag: TropicalDiagram, dual: Optional[DualSubdivision] = None, fmt: str = "svg") -> str:
    if not diag.vertices:
        raise RenderError("empty diagram")
    if fmt == "svg":
        return _render_svg(diag, dual)
    if fmt == "dot":
        return _render_dot(diag)
    raise RenderError(f"unknown format {fmt!r}")


def _render_svg(diag: TropicalDiagram, dual: Optional[DualSubdivision]) -> str:
    segs = []
    if diag.dim == 1:
        xs = sorted(v[0] for v in diag.vertices)
        lo, hi = xs[0] - RAY_LENGTH, xs[-1] + RAY_LENGTH
        segs.append(((lo, Q(0)), (hi, Q(0)), "axis"))
        points = [(x, Q(0)) for x in xs]
    else:
        for i, j in diag.edges:
            segs.append((diag.vertices[i], diag.vertices[j], "edge"))
        for r, (i, d) in enumerate(diag.rays):
            a = diag.vertices[i]
            b = (a[0] + RAY_LENGTH * d[0], a[1] + RAY_LENGTH * d[1])
            segs.append((a, b, "ray"))
        points = list(diag.vertices)
    xs = [p[0] for seg in segs for p in seg[:2]] + [p[0] for p in points]
    ys = [p[1] for seg in segs for p in seg[:2]] + [p[1] for p in points]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)

    def tx(p):
        return (
            MARGIN + SCALE * (p[0] - xmin),
            MARGIN + SCALE * (ymax - p[1]),  # flip y for screen coordinates
        )

    width = 2 * MARGIN + SCALE * (xmax - xmin)
    height = 2 * MARGIN + SCALE * (ymax - ymin)
    try:
        # every drawn coordinate lies between 0 and the width or the height
        float(width), float(height)
    except OverflowError:
        raise RenderError(
            f"{_farthest(diag, segs)} is beyond the drawable limit: the drawing must span at most"
            f" {sys.float_info.max:.6g} SVG units each way"
        ) from None
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    ]
    for a, b, cls in segs:
        (x1, y1), (x2, y2) = tx(a), tx(b)
        out.append(
            f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="black" stroke-width="2"/>'
        )
    for p in points:
        x, y = tx(p)
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="black"/>')
    if dual is not None:
        for idx, alpha in enumerate(dual.lattice_points):
            label = ",".join(str(a) for a in alpha)
            out.append(f"<!-- dual vertex {idx}: ({label}) -->")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _farthest(diag: TropicalDiagram, segs) -> str:
    """The vertex or ray end with the largest coordinate in absolute value."""
    ends = [b for _, b, cls in segs if cls == "ray"]
    named = [(f"vertex {i}", v) for i, v in enumerate(diag.vertices)]
    named += [(f"the end of ray {r}", b) for r, b in enumerate(ends)]
    return max(named, key=lambda item: max(abs(c) for c in item[1]))[0]


def _render_dot(diag: TropicalDiagram) -> str:
    out = ["graph web {"]
    for i, v in enumerate(diag.vertices):
        label = printed(lambda: ",".join(map(str, v)), "web vertex {} has a coordinate", i, error=RenderError)
        out.append(f'  v{i} [label="{label if diag.dim == 1 else f"({label})"}"];')
    for i, j in diag.edges:
        out.append(f"  v{i} -- v{j} [class=edge];")
    for r, (i, d) in enumerate(diag.rays):
        out.append(f'  r{r} [shape=point, label="({d[0]},{d[1]})"];')
        out.append(f"  v{i} -- r{r} [class=ray];")
    out.append("}")
    return "\n".join(out) + "\n"
