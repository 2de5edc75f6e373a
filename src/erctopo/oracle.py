"""Finite spaces with exhaustive reference semantics.

Every generic algorithm in this library is checked against these oracles:
a finite space enumerates everything, so membership, containment, overlap,
distances and quantification over subsets are all decidable by brute
force.  Spaces are given either by an explicit topology (a base, closed
under nothing in particular) or by a finite rational metric, in which case
the induced topology is discrete and the base is every nonempty subset.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .ercs import Ercs
from .kernel import enumerate_list
from .sets import LocatedSet, located_from_cdesc
from .spaces import MetricStructure, OutOfSpace, ParseError, PointName, Region, Space


class MalformedSpace(Exception):
    pass


class EmptySetArgument(Exception):
    pass


class FiniteSpace:
    """Point set plus either a metric table or an explicit base of opens."""

    def __init__(self, points: Sequence[str],
                 metric: dict[tuple[str, str], Fraction] | None = None,
                 base: Sequence[frozenset] | None = None,
                 name: str = "finite"):
        if len(set(points)) != len(points) or not points:
            raise MalformedSpace("points must be distinct and nonempty")
        self.points = tuple(points)
        self.name = name
        if metric is not None:
            self.metric_table = dict(metric)
            for p, q in combinations(points, 2):
                d = self.metric_table.get((p, q), self.metric_table.get((q, p)))
                if d is None:
                    raise MalformedSpace(f"distance d({p},{q}) unspecified")
                if d <= 0:
                    raise MalformedSpace("distances must be positive")
                self.metric_table[(p, q)] = self.metric_table[(q, p)] = Fraction(d)
            for p in points:
                self.metric_table[(p, p)] = Fraction(0)
            for p in points:
                for q in points:
                    for r in points:
                        if (self.metric_table[(p, r)]
                                > self.metric_table[(p, q)] + self.metric_table[(q, r)]):
                            raise MalformedSpace("triangle inequality violated")
            # discrete topology: every nonempty subset is a basic open
            self.base = tuple(frozenset(c)
                              for k in range(1, len(points) + 1)
                              for c in combinations(points, k))
        else:
            if base is None:
                raise MalformedSpace("need a metric or an explicit base")
            self.metric_table = None
            pts = frozenset(points)
            cleaned = []
            for b in base:
                fb = frozenset(b)
                if not fb <= pts:
                    raise MalformedSpace(f"basic {sorted(b)} uses unknown points")
                if fb and fb not in cleaned:
                    cleaned.append(fb)
            self.base = tuple(cleaned)
        self.opens = self._close_under_union()

    def _close_under_union(self) -> frozenset:
        if self.metric_table is not None:
            # discrete: every subset is open
            return frozenset(frozenset(c)
                             for k in range(len(self.points) + 1)
                             for c in combinations(self.points, k))
        opens = {frozenset()}
        frontier = [frozenset()]
        while frontier:
            cur = frontier.pop()
            for b in self.base:
                u = cur | b
                if u not in opens:
                    opens.add(u)
                    frontier.append(u)
        return frozenset(opens)

    def distance(self, p: str, q: str) -> Fraction:
        if self.metric_table is None:
            raise MalformedSpace("space has no metric")
        return self.metric_table[(p, q)]

    def closure(self, a: frozenset) -> frozenset:
        pts = frozenset(self.points)
        interior_of_complement = frozenset().union(
            *[b for b in self.base if b <= pts - a]) if a != pts else frozenset()
        return pts - interior_of_complement

    def is_closed(self, a: Iterable[str]) -> bool:
        return self.closure(frozenset(a)) == frozenset(a)


class OracleSpace(Space):
    """A finite space lifted to the generic interface; everything exact."""

    def __init__(self, fs: FiniteSpace):
        self.fs = fs
        self.name = fs.name
        self.finite_basic_count = len(fs.base)
        if fs.metric_table is not None:
            self.metric = _OracleMetric(self)
        self.whole_compact_desc = frozenset(fs.points)

    def decode(self, n: int):
        return self.fs.base[n] if 0 <= n < len(self.fs.base) else None

    def basic_subset(self, d1, d2) -> bool:
        return d1 <= d2

    def point_in_basic(self, value, d) -> bool:
        return value in d

    def cdesc_in_basic(self, cdesc, d) -> bool:
        return cdesc <= d

    def basic_meets_cdesc(self, d, cdesc) -> bool:
        return bool(d & cdesc)

    def cdesc_intersect(self, c1, c2):
        return c1 & c2

    def cdesc_union(self, c1, c2):
        return c1 | c2

    def region(self) -> Region:
        return _OracleRegion()

    def local_pinch(self, vdesc, pdesc):
        if vdesc <= pdesc:
            return frozenset(vdesc)  # every subset of a finite space is compact
        return None

    def make_cdesc(self, points) -> frozenset:
        got = frozenset(points)
        strays = got - frozenset(self.fs.points)
        if strays:
            raise OutOfSpace(f"{sorted(map(repr, strays))} not points of {self.name}")
        return got

    def point_name(self, value) -> PointName:
        return oracle_point(self, value)

    def parse_point(self, text: str) -> str:
        """A point named as in the space literal."""
        p = text.strip()
        if p not in self.fs.points:
            raise OutOfSpace(f"{p!r} is not a point of {self.name}")
        return p

    def parse_basic(self, text: str) -> frozenset:
        """A basic written as its point set ``{p,...}``."""
        t = text.strip()
        d = None
        if t.startswith("{") and t.endswith("}"):
            d = frozenset(p.strip() for p in t[1:-1].split(",") if p.strip())
        if d not in self.fs.base:
            raise ParseError(f"no index for the basic {text!r}")
        return d

    def format_basic(self, d) -> str:
        return "{" + ",".join(p for p in self.fs.points if p in d) + "}"

    def format_located(self, cdesc) -> list[str]:
        return [self.format_basic(cdesc)]

    def parse_located(self, text: str) -> frozenset:
        """Point sets ``{p,...}`` joined with '+'."""
        points = []
        for chunk in text.split("+"):
            t = chunk.strip()
            if not (t.startswith("{") and t.endswith("}")):
                raise ParseError(f"located literal chunk {t!r} (want {{p,...}})")
            points.extend(p.strip() for p in t[1:-1].split(",") if p.strip())
        return self.make_cdesc(points)

    def shrunk_core(self, d, slot: int) -> None:
        return None  # the filter lane lists every basic of a finite base

    def envelope_covers(self, cdesc, slot: int) -> list[frozenset]:
        # all covering families of up to three basics, swept by slot; the
        # bitmask lane completes the enumeration
        if slot > 2:
            return []
        out, key = [], self.region().key(cdesc)
        for combo in combinations(range(self.finite_basic_count), slot + 1):
            region = self.region()
            for n in combo:
                region.add(self.decode(n))
            if region.covers(key):
                out.append(frozenset(combo))
        return out


class _OracleMetric(MetricStructure):
    """The metric table of a finite space, with its points as the dense
    sequence; the ball calculus and the distance bounds are exact, as
    every basic is a finite set of points."""

    calculus = True

    def __init__(self, space: OracleSpace):
        pts = space.fs.points
        super().__init__(space, dense=lambda i: pts[i % len(pts)],
                         dense_index=pts.index, exact=space.fs.distance)

    def in_open_ball(self, x, d, r: Fraction) -> bool:
        return all(self.exact(x, p) < r for p in d)

    def meets_open_ball(self, x, d, r: Fraction) -> bool:
        return any(self.exact(x, p) < r for p in d)

    def _open_ball(self, x, r: Fraction) -> frozenset:
        return frozenset(p for p in self.space.fs.points if self.exact(x, p) < r)

    def ball_inside_basic(self, x, r: Fraction, d) -> bool:
        return self._open_ball(x, r) <= d

    def far(self, x, d, below: Fraction | None = None) -> Fraction:
        return max(self.exact(x, p) for p in d)

    def near(self, x, d, above: Fraction | None = None) -> Fraction:
        return min(self.exact(x, p) for p in d)

    def clearance(self, x):
        union: set = set()

        def add(d) -> Fraction | None:
            union.update(d)
            return min((self.exact(x, p) for p in self.space.fs.points
                        if p not in union), default=None)

        return add

    def cover_hull(self, descs) -> frozenset:
        return frozenset().union(*descs)

    def hausdorff_cells(self) -> "_OracleHausdorffCells":
        return _OracleHausdorffCells(self)

    def closed_ball_desc(self, x, r: Fraction) -> frozenset:
        return self.annulus_desc(x, Fraction(0), r)

    def annulus_desc(self, x, lo: Fraction, hi: Fraction) -> frozenset:
        return frozenset(p for p in self.space.fs.points if lo <= self.exact(x, p) <= hi)

    def encode_ball(self, x, r: Fraction) -> int:
        # the ball holds x, and every nonempty point set is a basic
        return self.space.encode_basic(self._open_ball(x, r))

    def ball_core(self, x, r: Fraction, slot: int) -> None:
        return None  # the filter lane lists every basic of a finite base

    def ball_seeds(self, x, r: Fraction) -> Iterable[int]:
        return (self.encode_ball(x, Fraction(1, 2 ** s)) for s in range(13))

    def annulus_tiles(self, x, lo: Fraction, hi: Fraction, w: Fraction) -> list[int]:
        return []  # the filter lane lists every basic of a finite base

    def witness_candidates(self, x, dist: Fraction, rho: Fraction) -> list:
        return list(self.space.fs.points)


class _OracleHausdorffCells:
    """Exact over the points of the hull, recomputed from every cell at
    each read: the lower bound is the largest, over cells, of the least
    distance between the cell and the hull, and the upper bound the
    largest, over hull points, of the least far distance to a cell."""

    def __init__(self, metric: _OracleMetric):
        self._metric, self._decode = metric, metric.space.decode
        self._cells: dict = {}  # index -> decoded cell, in the order fed

    def add(self, indices: Iterable[int]) -> None:
        for n in indices:
            if n not in self._cells:
                self._cells[n] = self._decode(n)

    def bounds(self, hull) -> tuple[Fraction, Fraction | None]:
        m, descs = self._metric, self._cells.values()
        lower = max((min((m.near(z, c) for z in hull), default=Fraction(0))
                     for c in descs), default=Fraction(0))
        if not descs:
            return lower, None
        return lower, max((min(m.far(z, c) for c in descs) for z in hull),
                          default=Fraction(0))


class _OracleRegion(Region):
    def __init__(self) -> None:
        self.union: set = set()
        self.version = 0

    def add(self, desc) -> None:
        if not desc <= self.union:
            self.union |= desc
            self.version += 1

    def covers(self, cdesc) -> bool:
        return cdesc <= self.union


def oracle_point(space: OracleSpace, p: str) -> PointName:
    if p not in space.fs.points:
        raise OutOfSpace(f"{p!r} is not a point of {space.name}")
    listing = [n for n in range(len(space.fs.base)) if p in space.fs.base[n]]
    return PointName(space, enumerate_list(listing), value=p)


def lift_finite(fs: FiniteSpace):
    """Space, ercs and (when metric) metric structure for a finite space.

    The patches are all nonempty subsets (every subset of a finite space is
    compact); formal containment is exact containment of a basic in a patch.
    """
    space = OracleSpace(fs)
    pts = fs.points
    subsets = [frozenset(c) for k in range(1, len(pts) + 1)
               for c in combinations(pts, k)]

    def cdesc(kid: int):
        return subsets[kid]

    pairs = [(n, kid)
             for n in range(len(fs.base))
             for kid in range(len(subsets))
             if fs.base[n] <= subsets[kid]]

    ercs = Ercs(space, space.all_basics(),
                enumerate_list(list(range(len(subsets)))),
                enumerate_list(pairs), cdesc)
    return space, ercs


# ---------------------------------------------------------------------------
# finite:{...} literals

_LITERAL = re.compile(r"^\{(?P<pts>[^;{}]*)(;(?P<rest>.*))?\}$", re.S)


def parse_finite_literal(text: str) -> FiniteSpace:
    """Grammar: ``{p1,...,pk; d(pi,pj)=r, ...}`` with exact rational r.

    The symmetric closure is applied; a missing distance is an error.
    """
    m = _LITERAL.match(text.strip())
    if not m:
        raise MalformedSpace(f"bad finite-space literal: {text!r}")
    points = [p.strip() for p in m.group("pts").split(",") if p.strip()]
    if not points:
        raise MalformedSpace("finite-space literal lists no points")
    rest = (m.group("rest") or "").strip()
    metric: dict[tuple[str, str], Fraction] = {}
    if rest:
        items, depth, cur = [], 0, []
        for ch in rest:
            if ch == "," and depth == 0:
                items.append("".join(cur))
                cur = []
                continue
            depth += ch == "("
            depth -= ch == ")"
            cur.append(ch)
        items.append("".join(cur))
        for item in items:
            item = item.strip()
            if not item:
                continue
            dm = re.match(r"^d\(([^,()]+),([^,()]+)\)=(.+)$", item)
            if not dm:
                raise MalformedSpace(f"bad distance clause: {item!r}")
            p, q, val = dm.group(1).strip(), dm.group(2).strip(), dm.group(3).strip()
            if p not in points or q not in points:
                raise MalformedSpace(f"distance clause names unknown point: {item!r}")
            try:
                metric[(p, q)] = Fraction(val)
            except (ValueError, ZeroDivisionError) as exc:
                raise MalformedSpace(f"bad rational {val!r}") from exc
    return FiniteSpace(points, metric=metric, name=f"finite:{{{','.join(points)}}}")


# ---------------------------------------------------------------------------
# Brute-force reference operations

def brute_located(fs: FiniteSpace):
    """All closed subsets as located sets (on discrete spaces: all subsets)."""
    space = OracleSpace(fs)
    out: list[LocatedSet] = []
    for k in range(len(fs.points) + 1):
        for combo in combinations(fs.points, k):
            a = frozenset(combo)
            if fs.is_closed(a):
                out.append(located_from_cdesc(space, a))
    return out


def brute_closed_subsets(fs: FiniteSpace) -> list[frozenset]:
    return [frozenset(c)
            for k in range(len(fs.points) + 1)
            for c in combinations(fs.points, k)
            if fs.is_closed(frozenset(c))]


def brute_forall(fs: FiniteSpace, predicate) -> bool:
    """Truth of: every closed subset (the located family) satisfies the
    set-level predicate."""
    return all(predicate(a) for a in brute_closed_subsets(fs))


def brute_distance(fs: FiniteSpace, x: str, a: Iterable[str]) -> Fraction:
    a = list(a)
    if not a:
        raise EmptySetArgument("distance to the empty set is undefined")
    return min(fs.distance(x, p) for p in a)


# Handy prebuilt oracle fixtures: at most 4 points each.

def standard_oracle_spaces() -> list[FiniteSpace]:
    spaces: list[FiniteSpace] = []
    spaces.append(FiniteSpace(["a"], metric={}, name="finite:point"))
    spaces.append(FiniteSpace(["a", "b"],
                              metric={("a", "b"): Fraction(1)},
                              name="finite:pair"))
    spaces.append(FiniteSpace(["a", "b"],
                              metric={("a", "b"): Fraction(1, 3)},
                              name="finite:near-pair"))
    spaces.append(FiniteSpace(["a", "b", "c"],
                              metric={("a", "b"): Fraction(1),
                                      ("a", "c"): Fraction(1),
                                      ("b", "c"): Fraction(1)},
                              name="finite:triangle"))
    spaces.append(FiniteSpace(["a", "b", "c"],
                              metric={("a", "b"): Fraction(1, 2),
                                      ("a", "c"): Fraction(1),
                                      ("b", "c"): Fraction(3, 4)},
                              name="finite:scalene"))
    spaces.append(FiniteSpace(["a", "b", "c", "d"],
                              metric={("a", "b"): Fraction(1),
                                      ("a", "c"): Fraction(2),
                                      ("a", "d"): Fraction(2),
                                      ("b", "c"): Fraction(2),
                                      ("b", "d"): Fraction(2),
                                      ("c", "d"): Fraction(1)},
                              name="finite:two-pairs"))
    # explicit (non-discrete) topologies
    spaces.append(FiniteSpace(["0", "1"], base=[frozenset("1"), frozenset("01")],
                              name="finite:sierpinski"))
    spaces.append(FiniteSpace(["0", "1", "2"],
                              base=[frozenset("0"), frozenset("01"), frozenset("012")],
                              name="finite:chain"))
    spaces.append(FiniteSpace(["0", "1", "2"],
                              base=[frozenset("0"), frozenset("2"),
                                    frozenset("012")],
                              name="finite:wedge"))
    spaces.append(FiniteSpace(["0", "1", "2", "3"],
                              base=[frozenset("01"), frozenset("23"),
                                    frozenset("1"), frozenset("3")],
                              name="finite:two-blobs"))
    return spaces
