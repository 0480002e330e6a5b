"""Frozen records against standard-library data classes with the same fields.

Every record class is compared with a twin built by
``dataclasses.make_dataclass(..., frozen=True)`` over instances harvested from
the pipeline on the shipped diagrams and on seeded random webs and series:
the same hash, ``==`` outcomes and repr, the same refusals, and ``replace``
that runs ``__post_init__`` again.
"""

import dataclasses
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction as Q

import pytest

from helpers import random_novikov, random_smooth_web, replace
import tropmirror
from tropmirror import analytic, diagram
from tropmirror.affine import build_cut_presentation, transport_crossings
from tropmirror.analytic import ConeFamily, WallTransformation, focus_focus_demo, wall_cross
from tropmirror.charges import build_web, charges_from_json
from tropmirror.diagram import TropicalDiagram, diagram_from_json
from tropmirror.mirror import corrections_from_json, superpotential
from tropmirror.novikov import NovikovElement, NovikovError, nov

ROOT = os.path.join(os.path.dirname(__file__), "..")
MODULES = [importlib.import_module(f"tropmirror.{m.name}") for m in pkgutil.iter_modules(tropmirror.__path__)]
RECORDS = sorted(
    (
        obj
        for module in MODULES
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and "_fields" in vars(obj)
    ),
    key=lambda cls: cls.__qualname__,
)


def _load(name):
    with open(os.path.join(ROOT, "diagrams", name), encoding="utf-8") as fh:
        return json.load(fh)


def _web(name):
    q, heights = charges_from_json(_load(name))
    return build_web(q, heights)


def _pipeline(diag):
    """Everything the layers derive from one diagram, as a list of roots."""
    out = [diag, diag.report, diag.dual]
    if diag.report.ok:
        out += [superpotential(diag), build_cut_presentation(diag)]
    if diag.dim == 2:
        out.append(diag.face_complex)
    return out


def _harvest():
    rng = random.Random(5)
    roots = []
    for name in ("c3.json", "focus_focus.json"):
        roots += _pipeline(diagram_from_json(_load(name)))
    for name in ("conifold.json", "kp1p1.json", "kp2.json"):
        web = _web(name)
        roots += [charges_from_json(_load(name))[0], web] + _pipeline(web.diagram)
    for _ in range(4):
        roots += _pipeline(random_smooth_web(rng, 8))
    bad = TropicalDiagram(2, ((Q(0), Q(0)), (Q(1), Q(1))), ((0, 1),))  # fails the axioms
    roots += [bad, bad.report]
    ff = diagram_from_json(_load("focus_focus.json"))
    pres = build_cut_presentation(ff)
    loop = [(-1, Q(-1, 2)), (1, Q(-1, 2)), (1, 1), (-1, 1), (-1, Q(-1, 2))]
    roots += transport_crossings(pres, loop)
    corrections = corrections_from_json([{"vertex": [0, 0], "series": [{"exp": "2", "coeff": "3"}]}])
    roots += [corrections, superpotential(diagram_from_json(_load("c3.json")), corrections=corrections)]
    roots.append(focus_focus_demo(6))
    wall = WallTransformation(0, (0, 1), (1, 0), "corrected")
    h_minus_y = focus_focus_demo(4).h_minus_y
    roots += [wall, wall_cross(h_minus_y, wall, 4, h_minus_y.box)]
    roots += [ConeFamily((0, k), (0, 1), k, nov([(k, 1)])) for k in (1, 2)]
    roots += [random_novikov(rng, truncation=rng.choice([None, Q(7)])) for _ in range(20)]
    found = defaultdict(list)
    seen = set()  # ids of records, which stay alive in `found`
    stack = roots
    while stack:
        obj = stack.pop()
        if "_fields" in vars(type(obj)):
            if id(obj) not in seen:
                seen.add(id(obj))
                found[type(obj)].append(obj)
                stack += [getattr(obj, name) for name in obj._fields]
        elif isinstance(obj, (tuple, list)):
            stack += obj
        elif isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
    return found


INSTANCES = _harvest()


def twin_class(cls):
    fields = []
    for name in cls._fields:
        if name in vars(cls):
            fields.append((name, object, vars(cls)[name]))
        else:
            fields.append((name, object))
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)


TWINS = {cls: twin_class(cls) for cls in RECORDS}


def values(obj):
    """Field values of a record or of its twin, in order."""
    if dataclasses.is_dataclass(obj):
        return [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    return [getattr(obj, name) for name in obj._fields]


def twin(record):
    return TWINS[type(record)](*values(record))


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return f"TypeError: {exc}"


def test_every_record_class_is_harvested():
    assert len(RECORDS) == 19
    assert [cls.__qualname__ for cls in RECORDS if not INSTANCES[cls]] == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_matches_a_frozen_dataclass(cls):
    rng = random.Random(cls.__qualname__)
    records = INSTANCES[cls]
    for r in records:
        t = twin(r)
        assert hash_or_error(r) == hash_or_error(t)
        assert repr(r) == repr(t)
        assert r != t and t != r and r.__eq__(t) is NotImplemented
        copy = replace(r)
        assert copy is not r and copy == r and values(copy) == values(r)
        assert cls(**dict(zip(cls._fields, values(r)))) == r
    pairs = [(rng.choice(records), rng.choice(records)) for _ in range(60)]
    pairs += [(r, replace(r)) for r in records[:10]]
    for a, b in pairs:
        ta, tb = twin(a), twin(b)
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_records_are_frozen_and_bind_like_a_signature(cls):
    r = INSTANCES[cls][0]
    args = values(r)
    first = cls._fields[0]
    for name in cls._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    with pytest.raises(AttributeError):
        delattr(r, first)
    assert values(r) == args
    for make in (cls, TWINS[cls]):
        with pytest.raises(TypeError, match="missing"):
            make()
        with pytest.raises(TypeError, match="unexpected keyword"):
            make(*args, not_a_field=1)
        with pytest.raises(TypeError, match="multiple values"):
            make(*args, **{first: args[0]})
        with pytest.raises(TypeError, match="positional"):
            make(*args, args[0])
    with pytest.raises(TypeError):
        replace(r, not_a_field=1)


def test_defaults_are_applied():
    with_defaults = [cls for cls in RECORDS if any(name in vars(cls) for name in cls._fields)]
    assert {cls.__qualname__ for cls in with_defaults} == {
        "NovikovElement", "TropicalDiagram",
    }
    for cls in with_defaults:
        defaulted = [name for name in cls._fields if name in vars(cls)]
        records = [r for r in INSTANCES[cls] if all(getattr(r, n) == vars(cls)[n] for n in defaulted)]
        assert records
        for r in records[:5]:
            required = [getattr(r, name) for name in cls._fields if name not in vars(cls)]
            assert cls(*required) == r
            assert values(cls(*required)) == values(TWINS[cls](*required))


def test_replace_runs_post_init_again():
    a = NovikovElement(((1, 2),), 5)
    assert replace(a, terms=[(Q(1, 2), 3)]).terms == ((Q(1, 2), Q(3)),)
    with pytest.raises(NovikovError, match="zero coefficients"):
        replace(a, terms=((1, 0),))
    m = analytic.Monomial(a, (1, 2))
    assert replace(m, expo=[3, 4]).expo == (3, 4)
    with pytest.raises(analytic.AnalyticError, match="nonzero"):
        replace(m, coeff=nov())


def test_replace_on_a_diagram_caches_nothing():
    warm = _web("kp2.json").diagram
    derived = ("report", "rings", "segments", "face_complex", "glued")
    for name in derived:
        getattr(warm, name)
    assert set(derived) <= set(vars(warm))
    fresh = replace(warm)
    assert fresh == warm and fresh is not warm
    assert set(vars(fresh)) == set(TropicalDiagram._fields) | {"scaled"}
    assert fresh.scaled == warm.scaled
    assert fresh.heights == warm.heights and fresh.dual == warm.dual
    with pytest.raises(diagram.DiagramError, match="dimension must be 1 or 2"):
        replace(warm, dim=3)


def test_a_number_too_long_to_print_is_shown_by_the_marker_in_a_repr():
    over = "<a number over the limit of 4300 digits>"
    assert repr(TropicalDiagram(1, ((Q(10**5000),),))) == f"TropicalDiagram(dim=1, vertices=(({over},),), edges=(), rays=())"
    series = nov([(10**5000, 1), (0, Q(1, 10**5000))])
    assert repr(series) == f"NovikovElement(terms=((Fraction(0, 1), {over}), ({over}, Fraction(1, 1))), truncation=None)"
    monomial = repr(analytic.Monomial(series, (1, -2)))
    assert monomial == f"Monomial(coeff={series!r}, expo=(1, -2))"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import sys, tropmirror.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
