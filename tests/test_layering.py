"""Layering guard: the consumers of spaces never branch on a space's type.

Each space owns its calculus (see README, "each space owns its calculus"),
so ``metric``, ``sets``, ``ercs`` and ``cli`` ask the space instead of
testing which class it is.  ``registry`` and ``oracle`` construct spaces
and are exempt.

Contract guard: the ``Space`` interface holds only methods that some code
of the package reads, and README's list of what a new space implements
names only ``Space`` methods.
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
    "_interval_like", "_piecewise", "_oracle_like",
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


def _space_methods() -> list[str]:
    tree = ast.parse((SRC / "spaces.py").read_text())
    space = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Space")
    return [node.name for node in space.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")]


def test_every_space_method_is_read():
    read = {node.attr for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    assert [name for name in _space_methods() if name not in read] == []


def test_readme_contract_names_space_methods():
    readme = (SRC.parent.parent / "README.md").read_text()
    contract = readme.split("A new space implements", 1)[1]
    contract = contract.split("Every test and bound is sound", 1)[0]
    names = re.findall(r"`(\w+)(?:\(\))?`", contract)
    methods = set(_space_methods())
    assert len(names) > 30
    assert [name for name in names if name not in methods] == []
