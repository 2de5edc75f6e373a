"""Command-line surface: demos and conformance runs with reproducible,
machine-readable output.

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
from fractions import Fraction
from functools import cache

from .ercs import compact_base
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
    overt_from_cdesc,
)
from .spaces import (
    MalformedLiteral,
    OutOfSpace,
    ParseError,
    UnknownSpace,
    parse_open_interval,
    parse_rational,
    point_from_rational,
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
    if not space.cdesc_nonempty(cdesc):
        raise EmptySetArgument(f"{text!r} names the empty set in {space.name}")
    return cdesc


def parse_bits(space, text: str) -> SpecBits:
    """Comma-separated assignments ``basic=bit``; unassigned bits are 0.
    Basics are ``[word]`` cylinders on cantor (``[e]`` is the root) and
    ``(a,b)`` intervals elsewhere."""
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
            desc = _parse_open_literal(args[0])
            outside = _outside_compact(bundle, desc)
            return subset_predicate(e, outside)
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


def _outside_compact(bundle, desc):
    outside = bundle.space.compact_complement(desc)
    if outside is None:
        raise ParseError("subset(...) needs a compact ambient space that can "
                         "complement its basics")
    return compact_from_cdesc(bundle.space, outside)


# ---------------------------------------------------------------------------
# Reports

def _fr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def emit(args, payload: dict) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        for key in sorted(payload):
            if key != "config":
                sys.stdout.write(f"{key}: {payload[key]}\n")


def _config(args) -> dict:
    return {"space": args.space, "fuel": args.fuel, "precision": args.precision}


def _bracket_payload(got, k: int):
    lo, hi = got
    mid = (lo + hi) / 2
    return {"value": _fr(mid), "lo": _fr(lo), "hi": _fr(hi),
            "tolerance": f"2^-{k}"}


# ---------------------------------------------------------------------------
# Commands

def cmd_compact_base(args) -> int:
    bundle = registry_get(args.space)
    if bundle.ercs is None:
        emit(args, {"command": "compact-base", "config": _config(args),
                    "result": "error: space has no relatively compact system",
                    "witness": None, "fuelUsed": 0})
        return DOMAIN_ERROR
    x = point_from_rational(bundle.space, parse_rational(args.x))
    u_desc = parse_open_interval(args.u)
    u = open_from_fixture(bundle.space, u_desc)
    got = compact_base(bundle.ercs, x, u, args.fuel)
    if got is None:
        emit(args, {"command": "compact-base", "config": _config(args),
                    "result": "Pending", "witness": None, "fuelUsed": args.fuel})
        return PENDING_EXIT
    v, k = got
    inner = run_process(member_open(x, v), args.fuel)
    outer = run_process(compact_subset(k, open_from_fixture(bundle.space, u_desc)),
                        args.fuel)
    ok = isinstance(inner, Accepted) and isinstance(outer, Accepted)
    vdesc = bundle.space.decode(v.parts.listing(2)[0])
    emit(args, {"command": "compact-base", "config": _config(args),
                "result": "verified" if ok else "unverified",
                "witness": {"neighborhood": f"({_fr(vdesc[0])},{_fr(vdesc[1])})",
                            "patch": [f"[{_fr(p)},{_fr(q)}]" for p, q in k.cdesc],
                            "memberStage": inner.stage,
                            "subsetStage": outer.stage},
                "fuelUsed": args.fuel})
    return OK if ok else PENDING_EXIT


def cmd_consistency(args) -> int:
    bundle = registry_get(args.space)
    if bundle.ercs is None:
        emit(args, {"command": "consistency", "config": _config(args),
                    "result": "error: space has no relatively compact system",
                    "witness": None, "fuelUsed": 0})
        return DOMAIN_ERROR
    bits = parse_bits(bundle.space, args.bits)
    cond = consistency_refute(bundle.ercs, bits, args.fuel)
    if cond is None:
        emit(args, {"command": "consistency", "config": _config(args),
                    "result": "NoneYet", "witness": None, "fuelUsed": args.fuel})
        return PENDING_EXIT
    space = bundle.space
    emit(args, {"command": "consistency", "config": _config(args),
                "result": "Refuted",
                "witness": {"touched": repr(space.decode(cond.n)),
                            "patch": repr(bundle.ercs.compact_cdesc(cond.kid)),
                            "cover": sorted(repr(space.decode(i))
                                            for i in cond.cover)},
                "fuelUsed": args.fuel})
    return OK


def cmd_forall(args) -> int:
    bundle = registry_get(args.space)
    if bundle.ercs is None:
        emit(args, {"command": "forall", "config": _config(args),
                    "result": "error: space has no relatively compact system",
                    "witness": None, "fuelUsed": 0})
        return DOMAIN_ERROR
    pred = parse_predicate(bundle, args.pred)
    search = forall_located(bundle.ercs, pred)
    res = run_process(search, args.fuel)
    if isinstance(res, Accepted):
        emit(args, {"command": "forall", "config": _config(args),
                    "result": "Accepted",
                    "witness": {"closingDepth": search.closing_depth},
                    "fuelUsed": res.stage + 1})
        return OK
    emit(args, {"command": "forall", "config": _config(args),
                "result": "Pending", "witness": None, "fuelUsed": args.fuel})
    return PENDING_EXIT


def cmd_distance(args) -> int:
    bundle = registry_get(args.space)
    if bundle.ercs is None or bundle.metric is None:
        emit(args, {"command": "distance", "config": _config(args),
                    "result": "error: needs a metric and a relatively compact system",
                    "witness": None, "fuelUsed": 0})
        return DOMAIN_ERROR
    x = exact_metric_point(bundle.metric, bundle.space.parse_point(args.x))
    a = located_from_cdesc(bundle.space, parse_located(bundle.space, args.located))
    real = distance_to_located(bundle.metric, bundle.ercs, x, a)
    got = real.approx(args.precision, fuel=args.fuel)
    if got is None:
        emit(args, {"command": "distance", "config": _config(args),
                    "result": "Pending", "witness": None, "fuelUsed": args.fuel})
        return PENDING_EXIT
    emit(args, {"command": "distance", "config": _config(args),
                "result": _bracket_payload(got, args.precision),
                "witness": None, "fuelUsed": got.stage})
    return OK


def cmd_hausdorff(args) -> int:
    bundle = registry_get(args.space)
    if bundle.ercs is None or bundle.metric is None or bundle.whole_hint is None:
        emit(args, {"command": "hausdorff", "config": _config(args),
                    "result": "error: needs a compact metric space with a system",
                    "witness": None, "fuelUsed": 0})
        return DOMAIN_ERROR
    a = located_from_cdesc(bundle.space, parse_located(bundle.space, args.a))
    b = located_from_cdesc(bundle.space, parse_located(bundle.space, args.b))
    real = hausdorff_distance(bundle.metric, bundle.ercs, a, b, bundle.whole_hint)
    got = real.approx(args.precision, fuel=args.fuel)
    if got is None:
        emit(args, {"command": "hausdorff", "config": _config(args),
                    "result": "Pending", "witness": None, "fuelUsed": args.fuel})
        return PENDING_EXIT
    emit(args, {"command": "hausdorff", "config": _config(args),
                "result": _bracket_payload(got, args.precision),
                "witness": None, "fuelUsed": got.stage})
    return OK


def cmd_radius(args) -> int:
    bundle = registry_get(args.space)
    if bundle.metric is None:
        emit(args, {"command": "radius", "config": _config(args),
                    "result": "error: needs a metric space",
                    "witness": None, "fuelUsed": 0})
        return DOMAIN_ERROR
    x = exact_metric_point(bundle.metric, bundle.space.parse_point(args.x))
    cdesc = parse_located(bundle.space, args.ball)
    k = compact_from_cdesc(bundle.space, cdesc)
    v = overt_from_cdesc(bundle.space, cdesc)
    real = radius(bundle.metric, x, k, v)
    got = real.approx(args.precision, fuel=args.fuel)
    if got is None:
        emit(args, {"command": "radius", "config": _config(args),
                    "result": "Pending", "witness": None, "fuelUsed": args.fuel})
        return PENDING_EXIT
    emit(args, {"command": "radius", "config": _config(args),
                "result": _bracket_payload(got, args.precision),
                "witness": None, "fuelUsed": got.stage})
    return OK


# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once; ``--fuel`` defaults to None,
    which :func:`main` resolves from the environment."""
    top = argparse.ArgumentParser(
        prog="erctopo",
        description="Exact computation with effectively locally compact spaces")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--space", required=True)
        p.add_argument("--fuel", type=int)
        p.add_argument("--precision", type=int, default=10)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("compact-base", help="find x in V inside K inside U")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--u", required=True)
    p.set_defaults(run=cmd_compact_base)

    p = sub.add_parser("consistency", help="refute a bit specification")
    common(p)
    p.add_argument("--bits", required=True)
    p.set_defaults(run=cmd_consistency)

    p = sub.add_parser("forall", help="universally quantify over located sets")
    common(p)
    p.add_argument("--pred", required=True)
    p.set_defaults(run=cmd_forall)

    p = sub.add_parser("distance", help="distance from a point to a located set")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--located", required=True)
    p.set_defaults(run=cmd_distance)

    p = sub.add_parser("hausdorff", help="Hausdorff distance of located sets")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(run=cmd_hausdorff)

    p = sub.add_parser("radius", help="radius of a named closed ball")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--ball", required=True)
    p.set_defaults(run=cmd_radius)
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
        return args.run(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return PARSE_ERROR
    except (UnknownSpace, MalformedLiteral, MalformedSpace, OutOfSpace,
            EmptySetArgument) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
