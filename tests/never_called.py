"""Fail on a function of ``src/erctopo`` that the Tier-1 suite never calls.

Runs the Tier-1 suite in this process with a ``sys.monitoring`` hook
(Python 3.12 or later) that records each code object at its first start
and then disables itself there, so a function costs one callback in the
whole run.  It then compiles every module of ``src/erctopo`` and walks
its code objects: a function, lambda or generator expression that never
started, and is not on ``EXEMPT`` below, fails the check, and so does an
``EXEMPT`` entry that no longer names a function, that the suite calls,
or that is not of the three kinds the list may hold.

pytest does not collect this file.  Run it from anywhere with the test
extra installed::

    python tests/never_called.py

It exits 0 when every function is called or exempt, 1 when it is not or
when the suite fails, and 2 on a Python without ``sys.monitoring``.
Every property test is derandomized, so the called set is the same on
every run.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "erctopo"

# Functions that no answer reaches, each as "module.py:qualname".  Only
# three kinds may be listed: the abstract stubs that raise
# NotImplementedError, the ``Space`` and ``Region`` defaults that every
# space of the suite overrides (a default means "unsupported" and stays
# for a space that lacks the structure), and the ``__repr__``s.
EXEMPT = frozenset({
    # abstract stubs
    "kernel.py:SemidecisionProcess.poll",
    "kernel.py:Machine.step",
    "kernel.py:MonotoneEnumerator.step",
    "metric.py:CReal.approx",
    "spaces.py:_LineSubspace._clip",
    "spaces.py:_LineSubspace.in_carrier",
    "spaces.py:_LineSubspace.trace",
    # Space and Region defaults
    "spaces.py:Region.add",
    "spaces.py:Region.covers",
    "spaces.py:Space.basic_meets_cdesc",
    "spaces.py:Space.basic_subset",
    "spaces.py:Space.cdesc_in_basic",
    "spaces.py:Space.cdesc_intersect",
    "spaces.py:Space.cdesc_union",
    "spaces.py:Space.closure_pairs",
    "spaces.py:Space.compact_complement",
    "spaces.py:Space.decode",
    "spaces.py:Space.local_pinch",
    "spaces.py:Space.make_cdesc",
    "spaces.py:Space.point_in_basic",
    "spaces.py:Space.region",
    # __repr__s
    "kernel.py:_Pending.__repr__",
    "sets.py:OpenSet.__repr__",
    "spaces.py:PointName.__repr__",
})


def _functions(code, module: str):
    """(key, code) of every function compiled into ``code``, nested ones
    included, keyed "module.py:qualname"."""
    for const in code.co_consts:
        if hasattr(const, "co_qualname"):
            yield f"{module}:{const.co_qualname}", const
            yield from _functions(const, module)


def _location(code) -> tuple[str, int, str]:
    return code.co_filename, code.co_firstlineno, code.co_qualname


def _exemptible(key: str, code) -> bool:
    """An abstract stub, a ``Space`` or ``Region`` default, or a __repr__."""
    qualname = key.split(":", 1)[1]
    return ("NotImplementedError" in code.co_names
            or qualname.split(".", 1)[0] in ("Space", "Region")
            or qualname.endswith(".__repr__"))


def main() -> int:
    if not hasattr(sys, "monitoring"):
        print("never_called: needs sys.monitoring (Python 3.12 or later)")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    started: set[tuple[str, int, str]] = set()
    src = str(SRC)

    def on_start(code, offset):
        if code.co_filename.startswith(src):
            started.add(_location(code))
        return mon.DISABLE

    mon.use_tool_id(tool, "never_called")
    mon.register_callback(tool, mon.events.PY_START, on_start)
    mon.set_events(tool, mon.events.PY_START)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    if status != 0:
        print(f"never_called: the suite failed (pytest exit {int(status)})")
        return 1

    codes = [(key, code) for path in sorted(SRC.glob("*.py"))
             for key, code in _functions(compile(path.read_text(), str(path), "exec"),
                                         path.name)]
    keys = {key for key, _ in codes}
    never = [(key, code) for key, code in codes if _location(code) not in started]
    never_keys = {key for key, _ in never}
    faults = [f"never called: {key} (line {code.co_firstlineno})"
              for key, code in never if key not in EXEMPT]
    faults += [f"exempt but gone: {key}" for key in sorted(EXEMPT - keys)]
    faults += [f"exempt but called: {key}" for key in sorted(EXEMPT & keys - never_keys)]
    faults += [f"exempt but no stub, default or __repr__: {key}"
               for key, code in codes if key in EXEMPT and not _exemptible(key, code)]
    print(f"never_called: {len(codes)} functions, {len(never)} never called, "
          f"{len(EXEMPT)} exempt")
    for line in faults:
        print(line)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
