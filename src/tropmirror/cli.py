"""Command-line front end.

Subcommands: validate | dual | web | mirror | transport | wallcross-demo |
eval | render.  Exit codes: 0 success, 1 validation/computation failure,
2 usage error.  Output is deterministic: identical inputs give byte-identical
results (sorted keys, no timestamps).

The numbers of the options (``--point``, ``--base-point``, ``--class`` and
``-E``) are read by the package's own readers, ``lattice.as_point`` on the
comma-separated parts and ``lattice.as_rational``, which name the option and
word a refusal as every file reader does: ``--point 1/0,1`` exits 1 with
``--point: expected a rational number, got '1/0'``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .affine import build_cut_presentation, path_from_json, tau_from_json, transport_covector
from .analytic import eval_series, focus_focus_demo, series_from_json, series_to_json
from .charges import build_web, charges_from_json
from .diagram import diagram_from_json, diagram_to_json
from .dual import dual_subdivision, is_smooth
from .lattice import as_point, as_rational, printed, read_int
from .mirror import corrections_from_json, normalize_presentation, presentation_to_json, superpotential
from .monodromy import build_dual_graph
from .novikov import nov_to_json, nov_to_text
from .render import render


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return printed(lambda: json.load(fh), "{}: a number", path)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not a JSON file: {exc}") from None
        except RecursionError:
            limit = sys.getrecursionlimit()
            raise ValueError(f"{path}: not a JSON file: nested deeper than the recursion limit ({limit})") from None


def _load_diagram(path: str):
    """Load a diagram JSON; charge files are built into their web first."""
    data = _load_json(path)
    if isinstance(data, dict) and "charges" in data:
        q, heights = charges_from_json(data)
        return build_web(q, heights).diagram
    return diagram_from_json(data)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``run``."""
    p = argparse.ArgumentParser(
        prog="tropmirror",
        description="SYZ mirror data of toric Calabi-Yau webs",
    )
    p.add_argument("--version", action="version", version=f"tropmirror {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the semi-toric axioms of a diagram")
    sp.add_argument("diagram")

    sp = sub.add_parser("dual", help="dual subdivision, embedding, and edge covectors")
    sp.add_argument("diagram")
    sp.add_argument("--root-face", type=int, default=None)
    sp.add_argument("--flip-sign", action="store_true", help="reflect the dual points through the origin")
    sp.add_argument("--format", choices=["json", "svg"], default="json")

    sp = sub.add_parser("web", help="build a web from a charge matrix and heights")
    sp.add_argument("--charges", required=True, metavar="FILE")
    sp.add_argument("--allow-singular", action="store_true")

    sp = sub.add_parser("mirror", help="mirror presentation x*y - g")
    sp.add_argument("diagram")
    sp.add_argument("--corrections", metavar="FILE")
    sp.add_argument("--base-point", metavar="P", help='rational point "p/q,p/q"')
    sp.add_argument("-E", "--truncation", default="10")
    sp.add_argument("--root-face", type=int, default=None)
    sp.add_argument("--flip-sign", action="store_true", help="the u -> u^-1 image of the relation, re-rooted")
    sp.add_argument("--raw", action="store_true", help="skip normalization")

    sp = sub.add_parser("transport", help="parallel transport a covector along a path")
    sp.add_argument("diagram")
    sp.add_argument("--path", required=True, metavar="FILE")
    sp.add_argument("--class", dest="covector", required=True, metavar="A,B,C")
    sp.add_argument("--tau", metavar="FILE", help="JSON map edge ref -> height")

    sp = sub.add_parser("wallcross-demo", help="run the focus-focus pipeline")
    sp.add_argument("-E", "--truncation", default="10")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("eval", help="evaluate a series at a base point")
    sp.add_argument("series")
    sp.add_argument("--point", required=True, metavar="P")

    sp = sub.add_parser("render", help="render a diagram to svg or dot")
    sp.add_argument("diagram")
    sp.add_argument("--format", choices=["svg", "dot"], default="svg")
    sp.add_argument("--dual", action="store_true")
    return p


def _cmd_validate(args) -> int:
    diag = _load_diagram(args.diagram)
    report = diag.report
    sys.stdout.write(_dumps(report.to_json()))
    return 0 if report.ok else 1


def _cmd_dual(args) -> int:
    diag = _load_diagram(args.diagram)
    sign = -1 if args.flip_sign else 1
    dual = dual_subdivision(diag, root_face=args.root_face, sign=sign)
    if args.format == "svg":
        sys.stdout.write(render(diag, dual, "svg"))
        return 0
    out = {
        "lattice_points": [list(p) for p in dual.lattice_points],
        "triangles": [list(t) for t in dual.triangles],
        "root_face": dual.root_face,
        "edge_duality": [{"edge": diag.edge_name(e), "faces": list(pair)} for e, pair in dual.edge_duality],
        "covectors": [{"edge": diag.edge_name(e), "covector": list(cov)} for e, cov in enumerate(diag.covectors)],
        "embedding_matches_subdivision": build_dual_graph(diag) == diag.dual.lattice_points,
        "smooth": is_smooth(diag),
    }
    sys.stdout.write(_dumps(out))
    return 0


def _cmd_web(args) -> int:
    q, heights = charges_from_json(_load_json(args.charges))
    web = build_web(q, heights, allow_singular=args.allow_singular)
    out = diagram_to_json(web.diagram)
    out["points"] = [list(p) for p in web.subdivision.points]
    out["simplicial"] = web.subdivision.is_simplicial()
    out["cells"] = [list(c.indices) for c in web.subdivision.cells]
    sys.stdout.write(_dumps(out))
    return 0


def _cmd_mirror(args) -> int:
    diag = _load_diagram(args.diagram)
    corrections = corrections_from_json(_load_json(args.corrections)) if args.corrections else None
    base = as_point(args.base_point.split(","), None, "--base-point", ValueError) if args.base_point else None
    sign = -1 if args.flip_sign else 1
    g = superpotential(
        diag,
        base=base,
        corrections=corrections,
        truncation=as_rational(args.truncation, "-E", ValueError),
        root_face=args.root_face,
        sign=sign,
    )
    if not args.raw:
        g = normalize_presentation(g)
    sys.stdout.write(_dumps(presentation_to_json(g)))
    return 0


def _cmd_transport(args) -> int:
    diag = _load_diagram(args.diagram)
    tau = tau_from_json(_load_json(args.tau)) if args.tau else None
    pres = build_cut_presentation(diag, tau)
    path = path_from_json(_load_json(args.path))
    g = as_point(args.covector.split(","), None, "--class", ValueError, read_int)
    result = transport_covector(pres, path, g)
    # json writes a tuple as a list
    sys.stdout.write(printed(lambda: _dumps({"class": g, "result": result}), "the transported class has an entry"))
    return 0


def _cmd_wallcross_demo(args) -> int:
    report = focus_focus_demo(as_rational(args.truncation, "-E", ValueError))
    if args.json:
        out = {
            "truncation": str(report.truncation),
            "passed": report.passed,
            "mirror_relation": report.mirror_relation,
            "messages": list(report.messages),
            "h_plus_x": series_to_json(report.h_plus_x),
            "h_minus_y": series_to_json(report.h_minus_y),
            "h_plus_y_left": series_to_json(report.h_plus_y_left),
            "h_plus_y_right": series_to_json(report.h_plus_y_right),
            "h_plus_y": series_to_json(report.h_plus_y_left),
            "product": series_to_json(report.product),
        }
        sys.stdout.write(_dumps(out))
    else:
        sys.stdout.write(f"focus-focus wall crossing at E = {report.truncation}\n")
        for msg in report.messages:
            sys.stdout.write(msg + "\n")
        sys.stdout.write(f"mirror relation: x*y - ({report.mirror_relation})\n")
    return 0 if report.passed else 1


def _cmd_eval(args) -> int:
    a = series_from_json(_load_json(args.series))
    value = eval_series(a, as_point(args.point.split(","), None, "--point", ValueError))
    write = lambda: _dumps({"text": nov_to_text(value), "terms": nov_to_json(value)})  # noqa: E731
    sys.stdout.write(printed(write, "the value at --point has a number"))
    return 0


def _cmd_render(args) -> int:
    diag = _load_diagram(args.diagram)
    dual = dual_subdivision(diag) if args.dual else None
    sys.stdout.write(render(diag, dual, args.format))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "dual": _cmd_dual,
    "web": _cmd_web,
    "mirror": _cmd_mirror,
    "transport": _cmd_transport,
    "wallcross-demo": _cmd_wallcross_demo,
    "eval": _cmd_eval,
    "render": _cmd_render,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "render" and args.dual and args.format == "dot":
            parser.error("render: --dual is drawn only by --format svg, not --format dot")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
