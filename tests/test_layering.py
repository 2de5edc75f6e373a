"""Layering guard: the consumers of spaces never branch on a space's type.

Each space owns its calculus (see README, "each space owns its calculus"),
so ``metric``, ``sets``, ``ercs`` and ``cli`` ask the space instead of
testing which class it is.  ``registry`` and ``oracle`` construct spaces
and are exempt.
"""

from __future__ import annotations

import ast
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


@pytest.mark.parametrize("module", CONSUMERS)
def test_consumers_do_not_dispatch_on_space_types(module):
    forbidden = METRIC_FORBIDDEN if module == "metric.py" else FORBIDDEN
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
