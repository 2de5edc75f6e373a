"""Metric-space algorithms: balls in all three set roles, compact closed
balls, systems built from them, radii, located-set distances and the
Hausdorff distance.

Exact reals are nested rational brackets.  A bracket owes its bounds to
the names: an upper bound comes from a covering that was seen to succeed,
a lower bound from an overlap or avoidance witness.  Radii, distances and
Hausdorff distances are read as one stream of running bounds (lower,
upper), the lower side nondecreasing and the upper nonincreasing (a left-
and a right-c.e. real), computed from the enumerated hits, covers and
complement parts themselves, through the metric's distance bounds
(``far``, ``near``, ``clearance`` and the Hausdorff tracker
``hausdorff_cells``); :class:`BoundsReal` reads the last pair the stream
lists at a stage.  One unit of fuel is one stage of the stream, which
reads one stage of every name it consumes.  No description is needed: a
set given only by its names gets the same stream.

A bound stream hands the metric each side's running best, so that a cell
that cannot improve on it costs an integer test and builds no Fraction.  The
Hausdorff tracker of a line subspace converts each hit cell once and keeps
the lower bound as a running maximum; a read then makes a few linear
passes over the antichain of cells kept for the cover radius (a merge,
the radius, the width drop), none of them a sort or a conversion, and
looks at no other cell held: only a cell fed again is tested against the
widths let go since it was converted.

A request for precision k reads until the bracket closes to width 2**-k
or the fuel budget runs out (an ordinary Pending).  Answers depend only
on k and the fuel, never on what was asked before.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .ercs import Ercs, compact_base, whole_space_compact
from .kernel import (
    Machine,
    MonotoneEnumerator,
    SemidecisionProcess,
    enumerate_step,
    filter_lane,
    pair,
    unpair,
)
from .sets import (
    ClosedSet,
    CompactSet,
    LocatedSet,
    OpenSet,
    OvertSet,
    closed_from_cdesc,
    compact_subset,
    intersect_closed_compact,
    whole_open,
)
from .spaces import MetricStructure, OutOfSpace, PointName

DEFAULT_APPROX_FUEL = 2 * 10 ** 5


# ---------------------------------------------------------------------------
# Exact reals

class Bracket(tuple):
    """An answer (lo, hi) of :meth:`CReal.approx`; ``stage`` is the fuel it
    took, at most the budget."""

    def __new__(cls, lo: Fraction, hi: Fraction, stage: int):
        got = super().__new__(cls, (lo, hi))
        got.stage = stage
        return got


def _within(width: Fraction, k: int) -> bool:
    """width <= 2**-k for k >= 0, read on the width's numerator and
    denominator: no power of two longer than the denominator is built, so
    a huge k costs no more than a small one."""
    num, den = width.numerator, width.denominator
    return num <= 0 or (k <= den.bit_length() and num << k <= den)


class CReal:
    """A real as nested rational brackets of width at most 2**-k."""

    def approx(self, k: int, fuel: int | None = None) -> Bracket | None:
        """Bracket (lo, hi) with hi - lo <= 2**-k, or None on fuel exhaustion."""
        raise NotImplementedError


class BoundsReal(CReal):
    """Nested brackets read off one stream of running bounds.

    The stream lists pairs (lower, upper), a side None until it has a
    bound; each pair is listed at a stage where a side improves, so the
    last pair listed at a stage holds the best bounds read so far.  One
    unit of fuel is one stage of the stream.  A request reads it at the
    stages 1, 2, 4, ... up to the budget; the bracket at a stage is a
    function of that stage alone, so the same (k, fuel) always gives the
    same answer, whose ``stage`` is the stage read.  Bounds that cross
    (names that disagree about the set) collapse the bracket onto the
    midpoint of the crossing gap.
    """

    def __init__(self, bounds: MonotoneEnumerator[tuple[Fraction | None,
                                                        Fraction | None]]):
        self.bounds = bounds

    def bracket(self, stage: int) -> tuple[Fraction, Fraction] | None:
        """The bracket the stream gives at ``stage``; None until each side
        has a bound."""
        listed = self.bounds.listing(stage)
        if not listed:
            return None
        lo, hi = listed[-1]
        if lo is None or hi is None:
            return None
        if lo > hi:
            mid = (lo + hi) / 2
            return (mid, mid)
        return (lo, hi)

    def approx(self, k: int, fuel: int | None = None) -> Bracket | None:
        budget = DEFAULT_APPROX_FUEL if fuel is None else fuel
        stage = 1
        while stage <= budget:
            got = self.bracket(stage)
            if got is not None and _within(got[1] - got[0], k):
                return Bracket(*got, stage)
            stage *= 2
        return None


_Bound = Callable[[object, Fraction | None], Fraction | None]


class _BoundStream(MonotoneEnumerator[tuple[Fraction, Fraction | None]]):
    """Running bounds read off two enumerated names, one per side.

    Stage t reads stage t of both names and maps each new item and the
    side's running best to a candidate bound (None for no bound, which is
    also allowed for a candidate that would not strictly improve on the
    best).  The lower side starts at 0, the upper side at None.  Stage 0
    lists (0, upper), and a later stage lists the new pair when a side
    improves, so the listing stays short.
    """

    def __init__(self, lower_items: MonotoneEnumerator, lower: _Bound,
                 upper_items: MonotoneEnumerator, upper: _Bound):
        super().__init__()
        self._lower_items = lower_items.cursor()
        self._lower = lower
        self._upper_items = upper_items.cursor()
        self._upper = upper
        self._lo: Fraction = Fraction(0)
        self._hi: Fraction | None = None

    def step(self, t: int):
        lo, hi = self._lo, self._hi
        for item in self._lower_items.upto(t + 1):
            b = self._lower(item, lo)
            if b is not None and b > lo:
                lo = b
        for item in self._upper_items.upto(t + 1):
            b = self._upper(item, hi)
            if b is not None and (hi is None or b < hi):
                hi = b
        # a new best is a strict improvement, hence a new object
        if t == 0 or lo is not self._lo or hi is not self._hi:
            self._lo, self._hi = lo, hi
            return ((lo, hi),)
        return ()


class BracketReal(CReal):
    """Brackets read off a machine that narrows them one stage at a time.

    The machine offers ``value_bracket()`` (None until it has a first
    upper bound); one unit of fuel is one machine stage.  Each change of
    the bracket is recorded with the number of stages run when it
    happened, so an answer depends only on (k, fuel), whatever was asked
    before; its ``stage`` is the recorded number of the change it reports.
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        self._steps = 0
        self._history: list[tuple[int, tuple[Fraction, Fraction]]] = []
        self._record()

    def _record(self) -> bool:
        got = self.machine.value_bracket()
        if got is None or (self._history and self._history[-1][1] == got):
            return False
        self._history.append((self._steps, got))
        return True

    def approx(self, k: int, fuel: int | None = None) -> Bracket | None:
        budget = DEFAULT_APPROX_FUEL if fuel is None else fuel
        for steps, (lo, hi) in self._history:
            if _within(hi - lo, k):
                return Bracket(lo, hi, steps) if steps <= budget else None
        while self._steps < budget:
            self._steps += 1
            self.machine.poll(self._steps)
            if self._record():
                lo, hi = self._history[-1][1]
                if _within(hi - lo, k):
                    return Bracket(lo, hi, self._steps)
        return None


# ---------------------------------------------------------------------------
# Metric points

class MetricPoint:
    """A point with a fast Cauchy representative among the dense sequence.

    ``name`` is the point's neighborhood name in the ambient space; exact
    fixture points carry their rational (or structured) value.
    """

    def __init__(self, metric: MetricStructure, cauchy: Callable[[int], int],
                 name: PointName, value=None):
        self.metric = metric
        self.space = metric.space
        self.cauchy = cauchy
        self.name = name
        self.value = value


def exact_metric_point(metric: MetricStructure, value) -> MetricPoint:
    """Fixture point taken from the dense sequence itself.  Its index there
    is found at the first read of ``cauchy``, which the bound streams of an
    exact center never make: walking the dense sequence up to a point costs
    time quadratic in its denominator.  The point name checks the value."""
    index: list[int] = []

    def cauchy(k: int) -> int:
        if not index:
            index.append(metric.dense_index(value))
        return index[0]

    return MetricPoint(metric, cauchy, metric.space.point_name(value), value=value)


# ---------------------------------------------------------------------------
# Balls in their three roles

def _calculus(m: MetricStructure) -> None:
    """Every ball and bracket reads the metric's ball calculus and distance
    bounds: a metric without them is a domain error."""
    if not m.calculus:
        raise OutOfSpace(f"no ball calculus or distance bounds on {m.space.name}")


def _exact_center(m: MetricStructure, x: MetricPoint):
    _calculus(m)
    if x.value is None:
        raise OutOfSpace("metric balls and brackets need a center with an exact value")
    return x.value


def ball_open(m: MetricStructure, x: MetricPoint, r) -> OpenSet:
    """Open ball as an open set: the metric's growing cores around the
    exact center plus the filter of every basic certified inside.  Raises
    OutOfSpace for a center without an exact value or a metric without a
    ball calculus."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("ball radius must be positive")
    space = m.space
    xv = _exact_center(m, x)

    def seeds(s: int):
        c = m.ball_core(xv, r, s)
        return (c,) if c is not None and space.decode(c) is not None else ()

    lane = filter_lane(space.decode, lambda d: m.in_open_ball(xv, d, r), seeds,
                       space.finite_basic_count)
    return OpenSet(space, lane, label=f"ball:{r}")


def closed_ball_closed(m: MetricStructure, x: MetricPoint, r) -> ClosedSet:
    """Closed ball as a closed set, named from the metric's exact
    description of it.  Raises OutOfSpace for a center without an exact
    value or a metric without a ball calculus."""
    xv = _exact_center(m, x)
    return closed_from_cdesc(m.space, m.closed_ball_desc(xv, Fraction(r)))


def cl_ball_overt(m: MetricStructure, x: MetricPoint, r) -> OvertSet:
    """Closure of the open ball as an overt set: every basic meeting the
    open ball, certified through a common witness.  Raises OutOfSpace as
    :func:`ball_open` does."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("ball radius must be positive")
    space = m.space
    xv = _exact_center(m, x)
    seeds = iter(m.ball_seeds(xv, r))

    def step(t: int):
        out = []
        c = next(seeds, None)
        if c is not None:
            d = space.decode(c)
            if d is not None and m.meets_open_ball(xv, d, r):
                out.append(c)
        d = space.decode(t)
        if d is not None and m.meets_open_ball(xv, d, r):
            out.append(t)
        return out

    return OvertSet(space, enumerate_step(step, stall_after=space.finite_basic_count),
                    cdesc=None)


# ---------------------------------------------------------------------------
# Compact balls

def compact_ball(e: Ercs, m: MetricStructure, x: MetricPoint,
                 fuel: int) -> tuple[int, CompactSet] | None:
    """Some n with a compact name of the closed ball of radius 2**-n.

    Runs the compact-base search in the whole space, shrinks a dyadic ball
    into the found neighborhood, and prunes the patch to the closed ball.
    Raises OutOfSpace for a center without an exact value.
    """
    xv = _exact_center(m, x)
    got = compact_base(e, x.name, whole_open(m.space), fuel)
    if got is None:
        return None
    v, patch = got
    vdesc = m.space.decode(v.parts.listing(2)[0])
    n = 0
    while n < 64:
        rho = Fraction(1, 2 ** n)
        if m.ball_inside_basic(xv, rho, vdesc):
            break
        n += 1
    else:
        return None
    # the closed ball of half that radius sits inside the open one, hence
    # inside the patch, so pruning the patch yields exactly the closed ball
    n += 1
    ball = closed_ball_closed(m, x, Fraction(1, 2 ** n))
    return n, intersect_closed_compact(ball, patch)


def ercs_from_compact_ball(m: MetricStructure,
                           cb: Callable[[int], tuple[int, CompactSet]]) -> Ercs:
    """System built from a compact-closed-ball provider on the dense points.

    Basics are dyadic balls around dense points; patches are closed dyadic
    balls pruned into the provided compacts; a ball is formally below a
    patch when the exact dense-point distance plus the patch radius is
    strictly under the ball radius.  Raises OutOfSpace for a metric
    without a ball calculus.
    """
    _calculus(m)
    space = m.space
    cb_cache: dict[int, tuple[int, CompactSet]] = {}

    def provider(idx: int):
        if idx not in cb_cache:
            cb_cache[idx] = cb(idx)
        return cb_cache[idx]

    def ball_code(n: int, i: int):
        return m.encode_ball(m.dense(n), Fraction(1, 2 ** i))

    def patch_radius(mm: int, j: int) -> Fraction:
        k_m, _ = provider(mm)
        return Fraction(1, 2 ** max(k_m, j))

    def u_step(t: int):
        n, i = unpair(t)
        c = ball_code(n, i)
        return (c,) if c is not None and space.decode(c) is not None else ()

    def k_step(t: int):
        return (t,)  # kid = pair(m, j)

    def r_step(t: int):
        # a ball is formally below a patch when the dense-point distance
        # plus the ball radius stays strictly under the patch radius, which
        # certifies containment of the ball in the patch by the triangle
        # inequality
        a, b = unpair(t)
        n, i = unpair(a)
        mm, j = unpair(b)
        lhs = m.exact(m.dense(n), m.dense(mm)) + Fraction(1, 2 ** i)
        if lhs < patch_radius(mm, j):
            c = ball_code(n, i)
            if c is not None and space.decode(c) is not None:
                return ((c, pair(mm, j)),)
        return ()

    def kid_cdesc(kid: int):
        mm, j = unpair(kid)
        return m.closed_ball_desc(m.dense(mm), patch_radius(mm, j))

    def kid_value(kid: int) -> CompactSet:
        mm, j = unpair(kid)
        center = exact_metric_point(m, m.dense(mm))
        ball = closed_ball_closed(m, center, patch_radius(mm, j))
        _, base_compact = provider(mm)
        return intersect_closed_compact(ball, base_compact)

    return Ercs(space, enumerate_step(u_step), enumerate_step(k_step),
                enumerate_step(r_step), kid_cdesc, kid_value)


# ---------------------------------------------------------------------------
# Radius

def radius(m: MetricStructure, x: MetricPoint, k: CompactSet, v: OvertSet,
           hi_seed=None) -> BoundsReal:
    """The radius rho with the named set equal to the closed ball around x.

    The lower bound is the largest ``near`` distance from x to an overt hit
    (each hit holds a point of the set), the upper bound the smallest,
    over enumerated covers of the compact name, of the largest ``far``
    distance from x to a cover cell.  One unit of fuel reads one stage of
    the hits and of the covers.  If the two sides ever cross (the named
    set is not exactly a ball), the bracket collapses inside the gap,
    where any rational is a legitimate answer.  ``hi_seed`` is accepted
    and ignored.  Raises OutOfSpace for a center without an exact value or
    a metric without distance bounds.
    """
    space = m.space
    xv = _exact_center(m, x)

    def widest(cover, best: Fraction | None) -> Fraction | None:
        # the cover improves on best only if each of its cells does
        fars = []
        for n in cover:
            f = m.far(xv, space.decode(n), best)
            if f is None:
                return None
            fars.append(f)
        return max(fars, default=Fraction(0))

    return BoundsReal(_BoundStream(
        v.hits, lambda n, best: m.near(xv, space.decode(n), best),
        k.covers, widest))


# ---------------------------------------------------------------------------
# Nice radius via nested Baire-style refinement

class _NiceRadiusMachine(Machine):
    """Maintains a closed bracket of candidate radii inside (0, r); for each
    refinement level n it certifies a dyadic subinterval [a, b] whose
    epsilon-annulus inside the given compact ball is covered by the open
    thickening of the inner ball, which makes every radius in [a, b] safe
    at granularity 2**-n."""

    def __init__(self, m: MetricStructure, x: MetricPoint, r: Fraction,
                 k: CompactSet):
        super().__init__()
        self.m = m
        self.x = x
        self.r = Fraction(r)
        self.k = k
        self.lo = self.r / 8
        self.hi = self.r * 7 / 8
        self.level = 0
        self._probes: list[tuple[Fraction, Fraction, SemidecisionProcess, int]] = []
        self._cursor = 0
        self._reseed()

    def value_bracket(self) -> tuple[Fraction, Fraction]:
        return (self.lo, self.hi)

    def _candidates(self):
        w = self.hi - self.lo
        cands = []
        for depth in (2, 3):
            step = w / 2 ** depth
            for a in range(1, 2 ** depth - 1):
                lo = self.lo + a * step
                cands.append((lo, lo + step))
        return cands

    def _certificate(self, a: Fraction, b: Fraction) -> SemidecisionProcess:
        eps = min((b - a) / 2, a / 2)
        annulus = self._annulus_compact(a - eps, b + eps)
        near = self._near_sphere_open(a - eps, b + eps)
        return compact_subset(annulus, near)

    def _annulus_compact(self, lo: Fraction, hi: Fraction) -> CompactSet:
        shell = closed_from_cdesc(self.m.space, self.m.annulus_desc(self.x.value, lo, hi))
        return intersect_closed_compact(shell, self.k)

    def _near_sphere_open(self, ann_lo: Fraction, ann_hi: Fraction) -> OpenSet:
        """Basics u with a witness z strictly nearer to x than all of u and
        within 2**-level of all of u: every point y of u then has z inside
        both the ball of radius d(x, y) around x and the small ball around y.
        A generated lane tiles the annulus span; a filter lane completes."""
        space = self.m.space
        m = self.m
        xv = self.x.value
        rho = Fraction(1, 2 ** self.level)

        def witnessed(udesc) -> bool:
            lo_dist = m.near(xv, udesc)
            if lo_dist <= 0:
                return False
            return any(m.exact(xv, z) < lo_dist and m.in_open_ball(z, udesc, rho)
                       for z in m.witness_candidates(xv, lo_dist, rho))

        def seeds(s: int):
            tiles = m.annulus_tiles(xv, ann_lo, ann_hi, rho / 4) if s == 0 else ()
            return [u for u in tiles
                    if space.decode(u) is not None and witnessed(space.decode(u))]

        lane = filter_lane(space.decode, witnessed, seeds, space.finite_basic_count)
        return OpenSet(space, lane, label=f"near-sphere:{self.level}")

    def _reseed(self) -> None:
        self._probes = [(a, b, self._certificate(a, b), 0)
                        for a, b in self._candidates()]
        self._cursor = 0

    def step(self, t: int) -> bool:
        if not self._probes:
            return False
        self._cursor %= len(self._probes)
        a, b, proc, f = self._probes[self._cursor]
        f += 1
        if proc.poll(f) is not None:
            self.lo, self.hi = a, b
            self.level += 1
            self._reseed()
        else:
            self._probes[self._cursor] = (a, b, proc, f)
            self._cursor += 1
        return False


def nice_radius(m: MetricStructure, x: MetricPoint, r, k: CompactSet) -> CReal:
    """Some radius r' in (0, r) whose open ball closure is the closed ball.
    Raises OutOfSpace as :func:`ball_open` does."""
    _exact_center(m, x)
    return BracketReal(_NiceRadiusMachine(m, x, Fraction(r), k))


# ---------------------------------------------------------------------------
# Distance to a located set

def distance_to_located(m: MetricStructure, e: Ercs, x: MetricPoint,
                        a: LocatedSet, hi_seed=None) -> BoundsReal:
    """Infimum distance from x to a nonempty located set.

    The upper bound is the smallest ``far`` distance from x to an overt
    hit; the lower bound is the space's ``clearance`` of x from the
    enumerated complement parts, 0 while no part covers x.  One unit of
    fuel reads one stage of the hits and of the complement parts.  The
    system ``e`` and ``hi_seed`` are accepted and not used.  Raises
    OutOfSpace for a center without an exact value or a metric without
    distance bounds.
    """
    space = m.space
    xv = _exact_center(m, x)
    clear = m.clearance(xv)
    return BoundsReal(_BoundStream(
        a.closed_part.complement.parts, lambda n, best: clear(space.decode(n)),
        a.overt_part.hits, lambda n, best: m.far(xv, space.decode(n), best)))


# ---------------------------------------------------------------------------
# Hausdorff distance

class _Hull:
    """A compact description of a set containing a compact set: its own
    description when it has one, else the intersection of the hulls of
    its enumerated covers, each of which contains the set."""

    def __init__(self, m: MetricStructure, k: CompactSet):
        self.m = m
        self.cdesc = k.cdesc
        self._covers = None if k.cdesc is not None else k.covers.cursor()

    def read(self, stage: int) -> None:
        if self._covers is None:
            return
        space = self.m.space
        for cover in self._covers.upto(stage):
            got = self.m.cover_hull([space.decode(n) for n in cover])
            self.cdesc = got if self.cdesc is None else space.cdesc_intersect(self.cdesc, got)


class _HausdorffBounds(MonotoneEnumerator[tuple[Fraction | None, Fraction | None]]):
    """The running (lower, upper) bounds of a Hausdorff distance, listed
    as :class:`_BoundStream` lists them, a side None until it has a bound.

    Each direction feeds the hit cells of one set to a tracker of the
    metric (see :class:`MetricStructure`) and, at the stages 1, 2, 4,
    ... that :class:`BoundsReal` reads, asks it for its bounds against the
    other set's hull: the lower bound is the larger of the two lower
    bounds, the upper bound the larger of the two upper bounds.
    """

    def __init__(self, m: MetricStructure, hits_a: MonotoneEnumerator[int],
                 hits_b: MonotoneEnumerator[int], hull_a: _Hull, hull_b: _Hull):
        super().__init__()
        # (one set's hull, the hits of the other set, the tracker of those)
        self._sides = [(hull_a, hits_b.cursor(), m.hausdorff_cells()),
                       (hull_b, hits_a.cursor(), m.hausdorff_cells())]
        self._lo: Fraction | None = None
        self._hi: Fraction | None = None

    def step(self, t: int):
        if t & (t + 1):
            return ()
        lows, highs = [], []
        for hull, hits, cells in self._sides:
            hull.read(t + 1)
            cells.add(hits.upto(t + 1))
            if hull.cdesc is not None:
                lo, hi = cells.bounds(hull.cdesc)
                lows.append(lo)
                highs.append(hi)
        improved = False
        lo = max(lows, default=None)
        if lo is not None and (self._lo is None or lo > self._lo):
            self._lo = lo
            improved = True
        if len(highs) == 2 and None not in highs:
            hi = max(highs)
            if self._hi is None or hi < self._hi:
                self._hi = hi
                improved = True
        return ((self._lo, self._hi),) if improved else ()


def hausdorff_distance(m: MetricStructure, e: Ercs, a: LocatedSet, b: LocatedSet,
                       whole_hint: Sequence[int], hi_seed=None) -> BoundsReal:
    """Hausdorff distance between nonempty located sets in a computably
    compact ambient space (the hint names patches covering the space).

    Each set's hull is its closed part cut down to the whole space (see
    :class:`_Hull`).  The lower bound is the largest gap between a hit of
    one set and the other set's hull; the upper bound is the larger cover
    radius of one hull by the other set's hit cells (see
    :class:`_HausdorffBounds`).  One unit of fuel reads one stage of both
    sets' hits.  ``hi_seed`` is accepted and ignored.  Raises OutOfSpace
    for a metric without distance bounds.
    """
    _calculus(m)
    whole = whole_space_compact(e, whole_hint)
    return BoundsReal(_HausdorffBounds(
        m, a.overt_part.hits, b.overt_part.hits,
        _Hull(m, intersect_closed_compact(a.closed_part, whole)),
        _Hull(m, intersect_closed_compact(b.closed_part, whole))))
