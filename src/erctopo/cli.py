"""Command-line surface: demos and conformance runs with reproducible,
machine-readable output.

The six commands are one table, :data:`COMMANDS`: each entry holds its
help string, its literal flags, the bundle structure it needs with the
error text when some of it is missing, and a ``run(bundle, args)`` that
reads the literals and returns ``(result, witness, fuelUsed, exit code)``.
One runner, :func:`run_command`, looks up the space, checks the structure,
runs the command and emits the report ``command``, ``config``, ``result``,
``witness``, ``fuelUsed``; the parser is built by a loop over the table.

Exit codes: 0 verified success, 1 parse error, 2 pending (fuel ran out),
3 domain error (unknown space, missing structure).  With ``--format json``
the output is byte-identical across runs of the same invocation.

The argument parser is built once per process and reused by every call of
:func:`main`; the default of ``--fuel`` is read from ``ERCTOPO_DEFAULT_FUEL``
at each call, so a change of the environment between calls applies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Callable, NamedTuple

from .ercs import basis_search
from .hyperspace import (
    SpecBits,
    consistency_refute,
    empty_or_predicate,
    and_predicate,
    forall_located,
    meets_predicate,
    or_predicate,
    subset_predicate,
)
from .kernel import run_process, Accepted
from .metric import (
    distance_to_located,
    exact_metric_point,
    hausdorff_distance,
    radius,
)
from .oracle import EmptySetArgument, MalformedSpace
from .registry import registry_get
from .sets import (
    compact_from_cdesc,
    compact_subset,
    located_from_cdesc,
    member_open,
    open_from_fixture,
    open_of_basic,
    overt_from_cdesc,
)
from .spaces import (
    MalformedLiteral,
    OutOfSpace,
    ParseError,
    UnknownSpace,
    rational_text,
)

DEFAULT_FUEL_ENV = "ERCTOPO_DEFAULT_FUEL"

OK, PARSE_ERROR, PENDING_EXIT, DOMAIN_ERROR = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# Literals (points, located sets and basics are read by the spaces)

def _split_top(text: str) -> list[str]:
    """``text`` split at the commas outside every bracket pair."""
    items, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
            continue
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        cur.append(ch)
    items.append("".join(cur))
    return items


def parse_located(space, text: str):
    """The nonempty compact description written in ``text`` (see
    :meth:`Space.parse_located`); a set empty in the space raises
    EmptySetArgument."""
    cdesc = space.parse_located(text)
    if not cdesc:
        raise EmptySetArgument(f"{text!r} names the empty set in {space.name}")
    return cdesc


def parse_bits(space, text: str) -> SpecBits:
    """Comma-separated assignments ``basic=bit``; unassigned bits are 0.
    Basics are ``[word]`` cylinders on cantor (``[e]`` is the root), point
    sets ``{p,...}`` on finite spaces and ``(a,b)`` intervals elsewhere."""
    assigned: dict[int, int] = {}
    for chunk in _split_top(text):
        t = chunk.strip()
        if not t:
            continue
        if "=" not in t:
            raise ParseError(f"bit assignment needs '=': {t!r}")
        basic, bit = t.rsplit("=", 1)
        bit = bit.strip()
        if bit not in ("0", "1"):
            raise ParseError(f"bit must be 0 or 1: {t!r}")
        idx = space.encode_basic(space.parse_basic(basic.strip()))
        if idx is None:
            raise ParseError(f"no index for the basic {basic.strip()!r}")
        assigned[idx] = int(bit)
    return SpecBits(lambda n: assigned.get(n, 0))


def parse_predicate(bundle, text: str):
    """DSL: subset(open(a,b)) | meets(open(a,b)) | isEmptyOr(P) |
    and(P,P) | or(P,P).  Cylinders are written open([w]) on cantor."""
    space, e = bundle.space, bundle.ercs

    def parse_expr(t: str):
        t = t.strip()
        head, args = _split_call(t)
        if head == "subset":
            outside = space.compact_complement(_parse_open_literal(args[0]))
            if outside is None:
                raise ParseError("subset(...) needs a compact ambient space "
                                 "that can complement its basics")
            return subset_predicate(e, compact_from_cdesc(space, outside))
        if head == "meets":
            desc = _parse_open_literal(args[0])
            return meets_predicate(e, open_from_fixture(space, desc))
        if head == "isEmptyOr":
            whole = bundle.whole_compact()
            if whole is None:
                raise ParseError("isEmptyOr needs a compact ambient space")
            return empty_or_predicate(e, whole, parse_expr(args[0]))
        if head == "and":
            return and_predicate(*[parse_expr(a) for a in args])
        if head == "or":
            return or_predicate(*[parse_expr(a) for a in args])
        raise ParseError(f"unknown predicate form {head!r}")

    def _split_call(t: str):
        if "(" not in t or not t.endswith(")"):
            raise ParseError(f"predicate term must be call-shaped: {t!r}")
        head, rest = t.split("(", 1)
        args = _split_top(rest[:-1]) if rest[:-1] else []
        return head.strip(), [a.strip() for a in args]

    def _parse_open_literal(t: str):
        head, args = _split_call(t)
        if head != "open":
            raise ParseError(f"expected open(...): {t!r}")
        body = ",".join(args)
        # a cylinder is written open([w]); an interval open(a,b)
        return space.parse_basic(body if body.startswith("[") else f"({body})")

    return parse_expr(text)


# ---------------------------------------------------------------------------
# Reports

def emit(args, payload: dict) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        for key in sorted(payload):
            if key != "config":
                sys.stdout.write(f"{key}: {payload[key]}\n")


# ---------------------------------------------------------------------------
# Commands: each reads its literals from ``args`` and returns
# ``(result, witness, fuelUsed, exit code)``

def _pending(args, result="Pending"):
    return result, None, args.fuel, PENDING_EXIT


def _approx(real, args):
    """The bracket of ``real`` at ``--precision`` within ``--fuel``, or Pending."""
    got = real.approx(args.precision, fuel=args.fuel)
    if got is None:
        return _pending(args)
    lo, hi = got
    return ({"value": rational_text((lo + hi) / 2), "lo": rational_text(lo),
             "hi": rational_text(hi),
             "tolerance": f"2^-{args.precision}"}, None, got.stage, OK)


def _compact_base(bundle, args):
    space = bundle.space
    x = space.point_name(space.parse_point(args.x))
    u_desc = space.parse_basic(args.u)
    w = basis_search(bundle.ercs, x, open_from_fixture(space, u_desc), args.fuel)
    if w is None:
        return _pending(args)
    v, k = open_of_basic(space, w.n), bundle.ercs.compact_value(w.kid)
    # each check's acceptance stage, or None (null) while it is Pending
    inner = member_open(x, v).poll(args.fuel)
    outer = compact_subset(k, open_from_fixture(space, u_desc)).poll(args.fuel)
    ok = inner is not None and outer is not None
    vdesc = space.decode(v.parts.listing(2)[0])
    return ("verified" if ok else "unverified",
            {"neighborhood": space.format_basic(vdesc),
             "patch": space.format_located(k.cdesc),
             "memberStage": inner, "subsetStage": outer},
            max(w.stage, inner, outer) + 1 if ok else args.fuel, OK if ok else PENDING_EXIT)


def _consistency(bundle, args):
    space = bundle.space
    cond = consistency_refute(bundle.ercs, parse_bits(space, args.bits), args.fuel)
    if cond is None:
        return _pending(args, "NoneYet")
    return ("Refuted",
            {"touched": space.format_basic(space.decode(cond.n)),
             "patch": space.format_located(bundle.ercs.compact_cdesc(cond.kid)),
             "cover": sorted(space.format_basic(space.decode(i)) for i in cond.cover)},
            cond.stage + 1, OK)


def _forall(bundle, args):
    search = forall_located(bundle.ercs, parse_predicate(bundle, args.pred))
    res = run_process(search, args.fuel)
    if not isinstance(res, Accepted):
        return _pending(args)
    return ("Accepted", {"closingDepth": search.closing_depth}, res.stage + 1, OK)


def _distance(bundle, args):
    space = bundle.space
    x = exact_metric_point(bundle.metric, space.parse_point(args.x))
    a = located_from_cdesc(space, parse_located(space, args.located))
    return _approx(distance_to_located(bundle.metric, bundle.ercs, x, a), args)


def _hausdorff(bundle, args):
    space = bundle.space
    a = located_from_cdesc(space, parse_located(space, args.a))
    b = located_from_cdesc(space, parse_located(space, args.b))
    return _approx(hausdorff_distance(bundle.metric, bundle.ercs, a, b,
                                      bundle.whole_hint), args)


def _radius(bundle, args):
    space = bundle.space
    x = exact_metric_point(bundle.metric, space.parse_point(args.x))
    cdesc = parse_located(space, args.ball)
    return _approx(radius(bundle.metric, x, compact_from_cdesc(space, cdesc),
                          overt_from_cdesc(space, cdesc)), args)


class Command(NamedTuple):
    help: str
    flags: tuple[str, ...]      # the command's literals, each a required --flag
    needs: tuple[str, ...]      # the bundle structure it runs on
    missing: str                # the domain error when some of it is None
    run: Callable


_NO_SYSTEM = "space has no relatively compact system"

COMMANDS = {
    "compact-base": Command("find x in V inside K inside U", ("x", "u"),
                            ("ercs",), _NO_SYSTEM, _compact_base),
    "consistency": Command("refute a bit specification", ("bits",),
                           ("ercs",), _NO_SYSTEM, _consistency),
    "forall": Command("universally quantify over located sets", ("pred",),
                      ("ercs",), _NO_SYSTEM, _forall),
    "distance": Command("distance from a point to a located set",
                        ("x", "located"), ("ercs", "metric"),
                        "needs a metric and a relatively compact system", _distance),
    "hausdorff": Command("Hausdorff distance of located sets", ("a", "b"),
                         ("ercs", "metric", "whole_hint"),
                         "needs a compact metric space with a system", _hausdorff),
    "radius": Command("radius of a named closed ball", ("x", "ball"),
                      ("metric",), "needs a metric space", _radius),
}


def run_command(args) -> int:
    """Run ``args.command`` on the named space and emit its report; the exit
    code is the command's, or a domain error when the space lacks the
    structure the command needs."""
    cmd = COMMANDS[args.command]
    bundle = registry_get(args.space)
    if any(getattr(bundle, name) is None for name in cmd.needs):
        result, witness, used, code = f"error: {cmd.missing}", None, 0, DOMAIN_ERROR
    else:
        result, witness, used, code = cmd.run(bundle, args)
    config = {"space": args.space, "fuel": args.fuel, "precision": args.precision}
    emit(args, {"command": args.command, "config": config, "result": result,
                "witness": witness, "fuelUsed": used})
    return code


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once; ``--fuel`` defaults to None,
    which :func:`main` resolves from the environment."""
    top = argparse.ArgumentParser(
        prog="erctopo",
        description="Exact computation with effectively locally compact spaces")
    sub = top.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--space", required=True)
        p.add_argument("--fuel", type=int)
        p.add_argument("--precision", type=int, default=10)
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag in cmd.flags:
            p.add_argument(f"--{flag}", required=True)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return PARSE_ERROR if exc.code not in (0, None) else 0
    if args.fuel is None:
        text = os.environ.get(DEFAULT_FUEL_ENV, "100000")
        try:
            args.fuel = int(text)
        except ValueError:
            sys.stderr.write(f"parse error: {DEFAULT_FUEL_ENV} is not an integer: "
                             f"{text!r}\n")
            return PARSE_ERROR
    if args.fuel < 0 or args.precision < 0:
        sys.stderr.write("fuel and precision must be nonnegative\n")
        return PARSE_ERROR
    try:
        return run_command(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return PARSE_ERROR
    except (UnknownSpace, MalformedLiteral, MalformedSpace, OutOfSpace,
            EmptySetArgument) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
