"""The names the benchmark looks up in the package stay where it looks.

``bench/tracing.py`` wraps the functions in its ``TRACED`` table at every
binding site, starting from ``tropmirror.<mod>.<fn>``; ``bench/workloads.py``
and ``bench/run.py`` read a few more names.  Moving code between modules must
leave all of them bound.  These tests only read ``bench/`` and run in this
process: each check imports a fresh copy of the package and puts the
session's modules back afterwards.
"""

import contextlib
import importlib
import importlib.util
import os
import pkgutil
import re
import sys
from fractions import Fraction as Q
from math import comb

import tropmirror
from tropmirror.analytic import ConeFamily
from tropmirror.lattice import Box
from tropmirror.novikov import nov

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")

_spec = importlib.util.spec_from_file_location("bench_tracing_contract", os.path.join(BENCH, "tracing.py"))
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# what bench/workloads.py (Program and the workload builders) and
# bench/run.py (_sizes_pass) read, beyond TRACED
BENCH_READS = {
    "tropmirror": (
        "TropicalDiagram", "build_cut_presentation", "chamber_of", "transport_covector", "nov", "nov_inv",
        "wall_cross",
    ),
    "tropmirror.cli": ("run",),
    "tropmirror.analytic": ("series", "Monomial", "WallTransformation", "ConeFamily.materialize"),
    "tropmirror.lattice": ("Box",),
}
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(tropmirror.__path__))


def _loaded() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "tropmirror" or n.startswith("tropmirror.")}


@contextlib.contextmanager
def fresh_package():
    """A fresh import of the package and every submodule; the session's modules come back after."""
    saved = _loaded()
    for name in saved:
        del sys.modules[name]
    try:
        for mod in SUBMODULES:
            importlib.import_module(f"tropmirror.{mod}")
        yield _loaded()
    finally:
        for name in _loaded():
            del sys.modules[name]
        sys.modules.update(saved)


def _resolve(module, dotted: str):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_bench_reads_are_named_in_bench_sources():
    text = ""
    for name in ("workloads.py", "run.py"):
        with open(os.path.join(BENCH, name), encoding="utf-8") as fh:
            text += fh.read()
    for names in BENCH_READS.values():
        for dotted in names:
            assert re.search(rf"\.{dotted.split('.')[-1]}\b", text), dotted


def test_traced_and_read_names_resolve_after_a_fresh_import():
    with fresh_package() as modules:
        for mod, fns in tracing.TRACED.items():
            for fn in fns:
                assert callable(getattr(modules[f"tropmirror.{mod}"], fn, None)), f"{mod}.{fn}"
        for mod, names in BENCH_READS.items():
            for dotted in names:
                assert _resolve(modules[mod], dotted) is not None, f"{mod}.{dotted}"


def test_tracer_wraps_every_binding_and_uninstall_restores_them():
    with fresh_package() as modules:
        before = {(n, attr): value for n, m in modules.items() for attr, value in vars(m).items()}
        originals = {id(getattr(modules[f"tropmirror.{mod}"], fn)) for mod, fns in tracing.TRACED.items() for fn in fns}
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for (name, attr), value in before.items():
                now = getattr(modules[name], attr)
                if id(value) in originals:
                    # every binding site, the defining module and each
                    # re-export alike, calls through the wrapper
                    assert now is not value and now.__wrapped__ is value, f"{name}.{attr}"
                else:
                    assert now is value, f"{name}.{attr}"
        finally:
            tracer.uninstall()
        after = {(n, attr): value for n, m in modules.items() for attr, value in vars(m).items()}
        assert after.keys() == before.keys()
        for key, value in before.items():
            assert after[key] is value, ".".join(key)


def test_materialize_returns_one_exponent_integer_pair_per_term():
    # bench/run.py counts len(materialize(...)) as analytic.materialized_terms
    box = Box(((Q(1, 4), Q(2)), (Q(1, 4), Q(2))))
    out = ConeFamily((0, -3), (1, 0), 3, nov([(Q(1, 2), 5)])).materialize(Q(40), box)
    # term k sits at valuation 1/2 - 6 + k/4 over the box, below 40 for k < 182
    assert type(out) is list and len(out) == 182
    for k, pair in enumerate(out):
        assert type(pair) is tuple and len(pair) == 2
        expo, c = pair
        assert type(expo) is tuple and all(type(e) is int for e in expo) and type(c) is int
        assert (expo, c) == ((k, -3), comb(k + 2, k) * (-1) ** k)
