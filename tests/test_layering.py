"""Layering guard: the consumers of spaces never branch on a space's type.

Each space owns its calculus (see README, "each space owns its calculus"),
so ``metric``, ``sets``, ``ercs`` and ``cli`` ask the space instead of
testing which class it is.  ``registry`` and ``oracle`` construct spaces
and are exempt.

The interval calculus reads no private slot of ``Fraction``: ends are
converted with the public ``as_integer_ratio``.

Contract guards: the ``Space`` interface holds only methods that some
code of the package reads, and so does every metric class; the metric
calculus lives on the metric classes, never on ``Space``, and ``metric``
never reads it off a space; README's list of what a new space implements
names every ``Space`` method and no other, and its list of what a metric
implements names the metric calculus and nothing else.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "erctopo"
CONSUMERS = ("metric.py", "sets.py", "ercs.py", "cli.py")
FORBIDDEN = {
    "_LineSubspace", "_IntervalSpaceBase", "LineSpace", "UnitIntervalSpace",
    "PiecewiseSpace", "CantorSpace", "StarSpace", "QhatSpace", "OracleSpace",
    "_LineMetric", "_OracleMetric",
    "_interval_like", "_piecewise", "_oracle_like",
}
# the ball calculus and the distance bounds: the methods of a metric class
# with a calculus (see MetricStructure), and of no space
METRIC_CALCULUS = {
    "in_open_ball", "meets_open_ball", "ball_inside_basic", "far", "near",
    "clearance", "cover_hull", "hausdorff_cells", "closed_ball_desc",
    "annulus_desc", "encode_ball", "ball_core", "ball_seeds", "annulus_tiles",
    "witness_candidates",
}


def _violations(source: str, forbidden=FORBIDDEN) -> list[str]:
    """Imports or mentions of a forbidden name (by default a concrete space
    class or a type-test helper), and every call of hasattr."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out += [f"line {node.lineno}: imports {a.name}"
                    for a in node.names if a.name in forbidden]
        elif isinstance(node, ast.Name) and node.id in forbidden:
            out.append(f"line {node.lineno}: names {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in forbidden:
            out.append(f"line {node.lineno}: names {node.attr}")
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in forbidden:
            out.append(f"line {node.lineno}: defines {node.name}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "hasattr"):
            out.append(f"line {node.lineno}: calls hasattr")
    return out


# the metric layer reads distances through the space interface only, never
# the interval representation behind it
METRIC_FORBIDDEN = FORBIDDEN | {"fiv", "streams_bounds", "encode_interval", "FivUnion"}
# the ercs instance systems ask the space for containment in a closure
ERCS_FORBIDDEN = FORBIDDEN | {"fiv", "cfiv", "fiv_subset"}
MODULE_FORBIDDEN = {"metric.py": METRIC_FORBIDDEN, "ercs.py": ERCS_FORBIDDEN}


@pytest.mark.parametrize("module", CONSUMERS)
def test_consumers_do_not_dispatch_on_space_types(module):
    forbidden = MODULE_FORBIDDEN.get(module, FORBIDDEN)
    assert _violations((SRC / module).read_text(), forbidden) == []


def test_guard_catches_a_type_ladder():
    ladder = '''
from .spaces import CantorSpace
from . import spaces

def _oracle_like(space):
    return hasattr(space, "fs")

def pick(space):
    if isinstance(space, (CantorSpace, spaces.StarSpace)):
        return 1
'''
    assert len(_violations(ladder)) == 5


def test_guard_catches_interval_reads_in_metric():
    reads = '''
from .spaces import FivUnion, encode_interval

def farthest(space, d, x):
    if space.streams_bounds:
        lo, _, hi, _ = space.fiv(d)
        return max(x - lo, hi - x)
'''
    assert len(_violations(reads, METRIC_FORBIDDEN)) == 4
    assert _violations(reads) == []


def test_guard_catches_interval_reads_in_ercs():
    reads = '''
def r_step(space, dm, dk):
    from .spaces import fiv_subset
    return fiv_subset(space.fiv(dm), space.cfiv(dk))
'''
    assert len(_violations(reads, ERCS_FORBIDDEN)) == 4
    assert _violations(reads) == []


SLOTS = ("_numerator", "_denominator")


def _slot_nodes(source: str) -> list[str]:
    """Every attribute node naming a private slot of Fraction, but the
    store targets in ``_lowest``: the one place that builds a Fraction from
    a coprime pair.  Every other end is read with ``as_integer_ratio``."""
    tree = ast.parse(source)
    stores = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_lowest"
              for node in ast.walk(fn)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    return [f"line {node.lineno}: {node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in SLOTS
            and id(node) not in stores]


def test_no_fraction_slot_is_read():
    assert [f"{path.name} {v}" for path in sorted(SRC.glob("*.py"))
            for v in _slot_nodes(path.read_text())] == []


def test_guard_catches_slot_reads():
    reads = '''
def _lowest(num, den):
    q = object.__new__(Fraction)
    q._numerator, q._denominator = num, den
    return q._numerator

def _cmp(x, y):
    try:
        xn, xd = x._numerator, x._denominator
    except AttributeError:
        xn, xd = x.as_integer_ratio()
    return xn * y._denominator - y.as_integer_ratio()[0] * xd

def _set(q):
    q._denominator = 1
'''
    assert len(_slot_nodes(reads)) == 5


def _methods(cls: ast.ClassDef) -> list[str]:
    return [node.name for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")]


def _classes() -> dict[str, ast.ClassDef]:
    """Every class of the package by name."""
    return {node.name: node for path in SRC.glob("*.py")
            for node in ast.parse(path.read_text()).body if isinstance(node, ast.ClassDef)}


def _space_methods() -> list[str]:
    return _methods(_classes()["Space"])


def _metric_classes() -> list[ast.ClassDef]:
    """MetricStructure and every class of the package derived from it."""
    classes = _classes()
    return [classes["MetricStructure"]] + [
        cls for cls in classes.values()
        if any(isinstance(b, ast.Name) and b.id == "MetricStructure" for b in cls.bases)]


def _attributes_read() -> set[str]:
    return {node.attr for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def test_every_space_method_is_read():
    read = _attributes_read()
    assert [name for name in _space_methods() if name not in read] == []


def test_every_metric_method_is_read():
    read = _attributes_read()
    assert [f"{cls.name}.{name}" for cls in _metric_classes()
            for name in _methods(cls) if name not in read] == []


def test_metric_calculus_lives_on_the_metric_classes():
    """Space defines none of the calculus, within a bound on its size; the
    plain MetricStructure defines none either, and each metric class with a
    calculus defines all of it and no other public method."""
    space = _space_methods()
    assert len(space) <= 32
    assert METRIC_CALCULUS.isdisjoint(space)
    plain, *families = _metric_classes()
    assert METRIC_CALCULUS.isdisjoint(_methods(plain))
    assert len(families) >= 2
    for cls in families:
        public = {name for name in _methods(cls) if not name.startswith("_")}
        assert public == METRIC_CALCULUS, cls.name


def _calculus_read_off_a_space(source: str) -> list[str]:
    """Reads of a calculus name off ``space`` or off an attribute ``space``
    (``m.space.far``)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in METRIC_CALCULUS:
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "space"
                    or isinstance(owner, ast.Attribute) and owner.attr == "space"):
                out.append(f"line {node.lineno}: reads {node.attr} off a space")
    return out


def test_metric_reads_the_calculus_off_the_metric():
    assert _calculus_read_off_a_space((SRC / "metric.py").read_text()) == []


def test_guard_catches_calculus_reads_off_a_space():
    reads = '''
def bounds(m, x, d):
    space = m.space
    return space.far(x, d), m.space.near(x, d), m.far(x, d), space.decode(0)
'''
    assert len(_calculus_read_off_a_space(reads)) == 2


def _readme_list(start: str, end: str) -> set[str]:
    readme = (SRC.parent.parent / "README.md").read_text()
    text = readme.split(start, 1)[1].split(end, 1)[0]
    return set(re.findall(r"`(\w+)(?:\(\))?`", text))


def test_readme_contract_names_space_methods():
    names = _readme_list("A new space implements", "A metric implements")
    assert len(names) > 30
    assert names == set(_space_methods())
    assert names.isdisjoint(METRIC_CALCULUS)


def test_readme_contract_names_metric_methods():
    names = _readme_list("A metric implements", "Every test and bound is sound")
    assert len(names) >= 15
    assert names == METRIC_CALCULUS
