"""Metric-space algorithms: balls in all three set roles, compact closed
balls, systems built from them, radii, located-set distances and the
Hausdorff distance.

Exact reals are nested rational brackets.  A bracket owes its bounds to
the names: an upper bound comes from a covering that was seen to succeed,
a lower bound from an overlap or avoidance witness.  Two engines produce
them.

* Bound streams.  For sets with an exact description on the interval
  spaces, each side of the bracket is a monotone stream of rationals (a
  left- or right-c.e. real) computed from the enumerated hits, covers and
  complement parts themselves; :class:`BoundsReal` reads both streams once
  per real.  One unit of fuel is one stage of the streams, which reads one
  stage of every name they consume.
* The threshold race.  Otherwise (no description, the finite oracle
  spaces, centers without an exact value) :class:`_BracketMachine` races
  semidecision certificates at probe thresholds; one unit of fuel is one
  stage of that machine.

A request for precision k reads until the bracket closes to width 2**-k
or the fuel budget runs out (an ordinary Pending).  Answers depend only
on k and the fuel, never on what was asked before.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .ercs import Ercs, compact_base
from .kernel import (
    Machine,
    MonotoneEnumerator,
    SemidecisionProcess,
    enumerate_step,
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
    open_from_fixture,
    overt_meets,
    whole_open,
)
from .spaces import (
    FivUnion,
    MetricStructure,
    OutOfSpace,
    PointName,
    Space,
    emission_slot,
    encode_interval,
)

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


class CReal:
    """A real as nested rational brackets of width at most 2**-k."""

    def approx(self, k: int, fuel: int | None = None) -> Bracket | None:
        """Bracket (lo, hi) with hi - lo <= 2**-k, or None on fuel exhaustion."""
        raise NotImplementedError


class ExactReal(CReal):
    def __init__(self, value):
        self.value = Fraction(value)

    def approx(self, k: int, fuel: int | None = None) -> Bracket:
        return Bracket(self.value, self.value, 0)


class LowerReal:
    """Nondecreasing rational bounds from below."""

    def __init__(self, bounds: MonotoneEnumerator[Fraction]):
        self.bounds = bounds

    def best(self, stage: int) -> Fraction | None:
        listed = self.bounds.listing(stage)
        return max(listed) if listed else None


class UpperReal:
    """Nonincreasing rational bounds from above."""

    def __init__(self, bounds: MonotoneEnumerator[Fraction]):
        self.bounds = bounds

    def best(self, stage: int) -> Fraction | None:
        listed = self.bounds.listing(stage)
        return min(listed) if listed else None


class BoundsReal(CReal):
    """Interleaves a lower and an upper bound stream into nested brackets.

    One unit of fuel is one stage of the streams.  A request reads both
    streams at the stages 1, 2, 4, ... up to the budget; the bracket at a
    stage is a function of that stage alone, so the same (k, fuel) always
    gives the same answer, whose ``stage`` is the stage read.  Bounds that
    cross (names that disagree about the set) collapse the bracket onto the
    midpoint of the crossing gap.
    """

    def __init__(self, lower: LowerReal, upper: UpperReal):
        self.lower = lower
        self.upper = upper

    def bracket(self, stage: int) -> tuple[Fraction, Fraction] | None:
        """The bracket both streams give at ``stage``; None until each side
        has a bound."""
        lo = self.lower.best(stage)
        hi = self.upper.best(stage)
        if lo is None or hi is None:
            return None
        if lo > hi:
            mid = (lo + hi) / 2
            return (mid, mid)
        return (lo, hi)

    def approx(self, k: int, fuel: int | None = None) -> Bracket | None:
        budget = DEFAULT_APPROX_FUEL if fuel is None else fuel
        width = Fraction(1, 2 ** k)
        stage = 1
        while stage <= budget:
            got = self.bracket(stage)
            if got is not None and got[1] - got[0] <= width:
                return Bracket(*got, stage)
            stage *= 2
        return None


class _BoundStream(MonotoneEnumerator[Fraction]):
    """Running best of per-item bounds read off an enumerated name.

    Stage t reads stage t of the name and maps each new item to a
    candidate bound (None for no bound); only improvements are emitted, so
    the listing stays short.  ``start`` is emitted at stage 0.
    """

    def __init__(self, items: MonotoneEnumerator,
                 bound: Callable[[object], Fraction | None],
                 lower: bool, start: Fraction | None = None):
        super().__init__()
        self._reader = items.cursor()
        self._bound = bound
        self._lower = lower
        self._best = start

    def step(self, t: int) -> Iterable[Fraction]:
        best = self._best
        for item in self._reader.upto(t + 1):
            b = self._bound(item)
            if b is not None and (best is None
                                  or (b > best if self._lower else b < best)):
                best = b
        if best is not None and (t == 0 or best != self._best):
            self._best = best
            return (best,)
        return ()


class _BracketMachine(Machine):
    """Shrinks a rational bracket by racing certificate processes.

    ``upper_factory(r)`` accepts only if the value is < r (then hi := r);
    ``lower_factory(r)`` accepts only if the value is >= r (then lo := r).
    Until an upper bound exists, a sweep doubles ``hi_seed``.  Probes are
    placed at thirds so the unknown value can coincide with at most one
    probe; the other must eventually resolve.  Every resolution discards
    the four probe processes and places fresh ones, which rescan their
    names from stage 0; this is the path for sets without a description
    and for the finite oracle spaces.  If certificates ever cross (an
    upper certificate below a lower one) the bracket is frozen at the
    crossing gap -- any value inside is then valid.
    """

    def __init__(self, lo: Fraction,
                 upper_factory: Callable[[Fraction], SemidecisionProcess],
                 lower_factory: Callable[[Fraction], SemidecisionProcess],
                 hi_seed: Fraction = Fraction(1)):
        super().__init__()
        self.lo = Fraction(lo)
        self.hi: Fraction | None = None
        self.frozen: Fraction | None = None
        self._upper_factory = upper_factory
        self._lower_factory = lower_factory
        self._seed = Fraction(hi_seed)
        self._probes: list[tuple[str, Fraction, SemidecisionProcess, int]] = []
        self._sweep_r = self._seed
        self._sweep_proc = upper_factory(self._seed)
        self._sweep_fuel = 0
        self._cursor = 0

    def value_bracket(self) -> tuple[Fraction, Fraction] | None:
        if self.frozen is not None:
            return (self.frozen, self.frozen)
        if self.hi is None:
            return None
        return (self.lo, self.hi)

    def _place_probes(self) -> None:
        w = self.hi - self.lo
        if w <= 0:
            self._probes = []
            return
        r1 = self.lo + w / 3
        r2 = self.lo + 2 * w / 3
        self._probes = [
            ("hi", r1, self._upper_factory(r1), 0),
            ("lo", r1, self._lower_factory(r1), 0),
            ("hi", r2, self._upper_factory(r2), 0),
            ("lo", r2, self._lower_factory(r2), 0),
        ]

    def step(self, t: int) -> bool:
        if self.frozen is not None:
            return False
        if self.hi is None:
            # initial sweep for any upper bound at all
            self._sweep_fuel += 1
            if self._sweep_proc.poll(self._sweep_fuel) is not None:
                self.hi = self._sweep_r
                self._place_probes()
            elif self._sweep_fuel >= 4 * (t.bit_length() + 1) ** 2:
                self._sweep_r = self._sweep_r * 2
                self._sweep_proc = self._upper_factory(self._sweep_r)
                self._sweep_fuel = 0
            return False
        if not self._probes:
            return False
        self._cursor %= len(self._probes)
        kind, r, proc, f = self._probes[self._cursor]
        f += 1
        if proc.poll(f) is not None:
            if kind == "hi":
                if r < self.lo:
                    self.frozen = (r + self.lo) / 2
                    return False
                self.hi = min(self.hi, r)
            else:
                if r > self.hi:
                    self.frozen = (self.hi + r) / 2
                    return False
                self.lo = max(self.lo, r)
            self._place_probes()
            self._cursor = 0
        else:
            self._probes[self._cursor] = (kind, r, proc, f)
            self._cursor += 1
        return False


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
        width = Fraction(1, 2 ** k)
        for steps, (lo, hi) in self._history:
            if hi - lo <= width:
                return Bracket(lo, hi, steps) if steps <= budget else None
        while self._steps < budget:
            self._steps += 1
            self.machine.poll(self._steps)
            if self._record():
                lo, hi = self._history[-1][1]
                if hi - lo <= width:
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
    """Fixture point taken from the dense sequence itself."""
    idx = metric.dense_index(value)
    return MetricPoint(metric, lambda k: idx, metric.space.point_name(value),
                       value=value)


# ---------------------------------------------------------------------------
# Balls in their three roles

def ball_open(m: MetricStructure, x: MetricPoint, r) -> OpenSet:
    """Open ball as an open set.  Around an exact center: the space's
    growing cores plus the filter of every basic certified inside;
    otherwise balls around the center's Cauchy representatives."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("ball radius must be positive")
    space = m.space
    if x.value is not None:
        xv = x.value

        def step(t: int):
            out = []
            s = emission_slot(t)
            if s is not None:
                c = space.ball_core(xv, r, s)
                if c is not None and space.decode(c) is not None:
                    out.append(c)
            d = space.decode(t)
            if d is not None and space.in_open_ball(xv, d, r):
                out.append(t)
            return out

        return OpenSet(space, enumerate_step(step, stall_after=space.finite_basic_count),
                       label=f"ball:{r}")

    def generic_step(t: int):
        out = []
        s = emission_slot(t)
        if s is not None:
            rho = r - 2 * Fraction(1, 2 ** s)
            if rho > 0:
                out.append(space.encode_ball(m.dense(x.cauchy(s)), rho))
        return [c for c in out if c is not None and space.decode(c) is not None]

    return OpenSet(space, enumerate_step(generic_step), label=f"ball:{r}")


def closed_ball_closed(m: MetricStructure, x: MetricPoint, r) -> ClosedSet:
    """Closed ball as a closed set: the complement enumerates every basic
    certified to avoid it."""
    r = Fraction(r)
    space = m.space
    cdesc = space.closed_ball_desc(x.value, r) if x.value is not None else None
    if cdesc is not None:
        return closed_from_cdesc(space, cdesc)

    def step(t: int):
        out = []
        n, k = unpair(t)
        d = space.decode(n)
        if d is not None and x.value is not None:
            if space.outside_closed_ball(x.value, d, r):
                out.append(n)
        return out

    return ClosedSet(OpenSet(space, enumerate_step(step), label=f"co-ball:{r}"),
                     cdesc=None)


def cl_ball_overt(m: MetricStructure, x: MetricPoint, r) -> OvertSet:
    """Closure of the open ball as an overt set: every basic meeting the
    open ball, certified through a common witness."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("ball radius must be positive")
    space = m.space
    if x.value is None:
        raise OutOfSpace("overt balls need an exact fixture center")

    seeds = iter(space.ball_seeds(x.value, r))

    def step(t: int):
        out = []
        c = next(seeds, None)
        if c is not None:
            d = space.decode(c)
            if d is not None and space.meets_open_ball(x.value, d, r):
                out.append(c)
        d = space.decode(t)
        if d is not None and space.meets_open_ball(x.value, d, r):
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
    """
    got = compact_base(e, x.name, whole_open(m.space), fuel)
    if got is None:
        return None
    v, patch = got
    vdesc = m.space.decode(v.parts.listing(2)[0])
    n = 0
    while n < 64:
        rho = Fraction(1, 2 ** n)
        if x.value is not None and m.space.ball_inside_basic(x.value, rho, vdesc):
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
    strictly under the ball radius.
    """
    space = m.space
    cb_cache: dict[int, tuple[int, CompactSet]] = {}

    def provider(idx: int):
        if idx not in cb_cache:
            cb_cache[idx] = cb(idx)
        return cb_cache[idx]

    def ball_code(n: int, i: int):
        return space.encode_ball(m.dense(n), Fraction(1, 2 ** i))

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
        return space.closed_ball_desc(m.dense(mm), patch_radius(mm, j))

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

class _HitScan(Machine):
    """Scans overt hits, four hit stages per step, for one whose basic
    passes ``found``.  With ``found`` a test for lying outside a closed
    ball, this is the streamed equivalent of matching a hit inside an
    enumerated part of the ball-complement name; with a test for lying
    inside an open ball, of matching one inside a shrinking core of the
    ball name."""

    def __init__(self, space: Space, hits: MonotoneEnumerator[int],
                 found: Callable[[object], bool]):
        super().__init__()
        self.space = space
        self._hits = hits.cursor()
        self.found = found

    def step(self, t: int) -> bool:
        for n in self._hits.upto(4 * t + 4):
            if self.found(self.space.decode(n)):
                return True
        if self._hits.quiescent(4 * t + 4):
            self.stall()
        return False


def _farthest(space: Space, xval, n: int) -> Fraction:
    """Largest distance from x to a point of the basic's trace."""
    lo, _, hi, _ = space.fiv(space.decode(n))
    return max(xval - lo, hi - xval)


def _nearest(space: Space, xval, n: int) -> Fraction:
    """Least distance from x to the basic's trace (negative inside it)."""
    lo, _, hi, _ = space.fiv(space.decode(n))
    return max(lo - xval, xval - hi)


def _streamed(space: Space, *descs) -> bool:
    """Whether bound streams serve: exactly described sets on a space that
    streams bounds."""
    return space.streams_bounds and all(d is not None for d in descs)


def radius(m: MetricStructure, x: MetricPoint, k: CompactSet, v: OvertSet,
           hi_seed=Fraction(1)) -> CReal:
    """The radius rho with the named set equal to the closed ball around x.

    Described sets on interval spaces: the lower bound is the largest
    least distance from x to an overt hit (each hit holds a point of the
    set), the upper bound the smallest, over enumerated covers of the
    compact name, of the largest distance from x to a cover cell.  One
    unit of fuel reads one stage of the hits and of the covers.

    Otherwise the threshold race: upper certificates show the compact
    name fits in an open ball, lower certificates that the overt name
    escapes a closed ball; the sweep for a first upper bound starts at
    ``hi_seed``, and one unit of fuel is one stage of the race.  If the
    two sides ever cross (the named set is not exactly a ball), any
    rational in the gap is a legitimate answer and the bracket freezes
    there.
    """
    space = m.space
    if x.value is not None and _streamed(space, k.cdesc, v.cdesc):
        xv = x.value
        lower = _BoundStream(v.hits, lambda n: _nearest(space, xv, n),
                             lower=True, start=Fraction(0))
        upper = _BoundStream(
            k.covers, lambda cover: max((_farthest(space, xv, n) for n in cover),
                                        default=Fraction(0)),
            lower=False)
        return BoundsReal(LowerReal(lower), UpperReal(upper))

    def upper_cert(r: Fraction) -> SemidecisionProcess:
        return compact_subset(k, ball_open(m, x, r))

    def lower_cert(r: Fraction) -> SemidecisionProcess:
        if x.value is not None:
            return _HitScan(space, v.hits,
                            lambda d: space.outside_closed_ball(x.value, d, r))
        return overt_meets(v, closed_ball_closed(m, x, r).complement)

    return BracketReal(_BracketMachine(Fraction(0), upper_cert, lower_cert,
                                       hi_seed=Fraction(hi_seed)))


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
        space = self.m.space
        shell = closed_from_cdesc(space, space.annulus_desc(self.x.value, lo, hi))
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
            lo_dist = space.min_dist(xv, udesc)
            if lo_dist <= 0:
                return False
            return any(m.exact(xv, z) < lo_dist and space.in_open_ball(z, udesc, rho)
                       for z in space.witness_candidates(xv, lo_dist, rho))

        def step(t: int):
            out = []
            if emission_slot(t) == 0:
                for u in space.annulus_tiles(xv, ann_lo, ann_hi, rho / 4):
                    if space.decode(u) is not None and witnessed(space.decode(u)):
                        out.append(u)
            d = space.decode(t)
            if d is not None and witnessed(d):
                out.append(t)
            return out

        return OpenSet(space, enumerate_step(step, stall_after=space.finite_basic_count),
                       label=f"near-sphere:{self.level}")

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
    """Some radius r' in (0, r) whose open ball closure is the closed ball."""
    return BracketReal(_NiceRadiusMachine(m, x, Fraction(r), k))


# ---------------------------------------------------------------------------
# Distance to a located set

class _SigmaHull:
    """Growing union of the system's patches, with an exact description."""

    def __init__(self, e: Ercs):
        self.e = e
        self.space = e.space
        self._kids = e.k_stream.cursor()
        self._found: list[int] = []
        self._union = None

    def grow(self) -> None:
        for kid in self._kids.upto(self._kids.stage + 1):
            d = self.e.compact_cdesc(kid)
            if d is not None:
                self._found.append(kid)
                self._union = (d if self._union is None
                               else self.space.cdesc_union(self._union, d))

    def cover_of(self, cdesc, budget: int) -> CompactSet | None:
        """A compact union of patches whose description covers cdesc."""
        for _ in range(budget):
            if self._union is not None and self.space.cdesc_subset(cdesc, self._union):
                from .ercs import whole_space_compact
                return whole_space_compact(self.e, list(self._found))
            self.grow()
        return None


def distance_to_located(m: MetricStructure, e: Ercs, x: MetricPoint,
                        a: LocatedSet, hi_seed=Fraction(1)) -> CReal:
    """Infimum distance from x to a nonempty located set.

    Described sets on interval spaces: the upper bound is the smallest,
    over overt hits (a, b), of max(b - x, x - a); the lower bound is the
    half-width around x of the component containing x of the union of the
    enumerated complement parts, or 0 while no part covers x.  One unit
    of fuel reads one stage of the hits and of the complement parts.

    Otherwise the threshold race: upper certificates show the overt part
    meets an open ball, lower certificates that a compact closed ball
    around x lies inside the complement of the closed part; the sweep for
    a first upper bound starts at ``hi_seed``, and one unit of fuel is one
    stage of the race.
    """
    space = m.space
    if x.value is not None and _streamed(space, a.cdesc):
        xv = x.value
        gaps = FivUnion()

        def around_x(n: int) -> Fraction | None:
            lo, hi = space.decode(n)  # raw: the part avoids the whole set
            gaps.add((lo, 1, hi, 1))
            part = gaps.part_at(xv)
            return None if part is None else min(xv - part[0], part[2] - xv)

        lower = _BoundStream(a.closed_part.complement.parts, around_x,
                             lower=True, start=Fraction(0))
        upper = _BoundStream(a.overt_part.hits, lambda n: _farthest(space, xv, n),
                             lower=False)
        return BoundsReal(LowerReal(lower), UpperReal(upper))

    sigma = _SigmaHull(e)

    def upper_cert(r: Fraction) -> SemidecisionProcess:
        if x.value is not None:
            return _HitScan(space, a.overt_part.hits,
                            lambda d: space.in_open_ball(x.value, d, r))
        return overt_meets(a.overt_part, ball_open(m, x, r))

    def lower_cert(r: Fraction) -> SemidecisionProcess:
        return _LowerDistanceCert(m, e, sigma, x, a, r)

    return BracketReal(_BracketMachine(Fraction(0), upper_cert, lower_cert,
                                       hi_seed=Fraction(hi_seed)))


class _LowerDistanceCert(Machine):
    """Certifies that the closed ball of radius r misses the located set:
    builds the ball as a compact set (pruned out of a sigma-patch union
    covering it) and semidecides inclusion in the closed part's complement."""

    def __init__(self, m: MetricStructure, e: Ercs, sigma: _SigmaHull,
                 x: MetricPoint, a: LocatedSet, r: Fraction):
        super().__init__()
        self.m = m
        self.e = e
        self.sigma = sigma
        self.x = x
        self.a = a
        self.r = r
        self._inner: SemidecisionProcess | None = None
        self._inner_fuel = 0

    def step(self, t: int) -> bool:
        if self._inner is None:
            cdesc = self.m.space.closed_ball_desc(self.x.value, self.r)
            if cdesc is None:
                self.stall()
                return False
            hull = self.sigma.cover_of(cdesc, budget=4)
            if hull is None:
                return False
            ball = closed_ball_closed(self.m, self.x, self.r)
            k_ball = intersect_closed_compact(ball, hull)
            self._inner = compact_subset(k_ball, self.a.closed_part.complement)
        self._inner_fuel += 1
        return self._inner.poll(self._inner_fuel) is not None


# ---------------------------------------------------------------------------
# Hausdorff distance

def _far_open(space: Space, udesc, r: Fraction) -> OpenSet:
    """Points at distance more than r from the basic u (interval spaces)."""
    a, b = udesc

    def step(t: int):
        s = emission_slot(t)
        if s is None:
            return ()
        width = Fraction(2 ** s)
        out = [encode_interval(a - r - width, a - r),
               encode_interval(b + r, b + r + width)]
        return [c for c in out if space.decode(c) is not None]

    return OpenSet(space, enumerate_step(step), label=f"far:{r}")


def _thickening_open(space: Space, hits: MonotoneEnumerator[int], r: Fraction,
                     codes: dict[tuple[int, Fraction], int]) -> OpenSet:
    """Open r-thickening of a set given by overt hits (interval spaces).

    ``codes`` memoizes the thickened code of each (hit, r); its owner is
    the real that races these thickenings, so it lives as long as that
    real and no longer.
    """

    class _Thick(MonotoneEnumerator[int]):
        def __init__(self) -> None:
            super().__init__()
            self._hits = hits.cursor()
            self._seen: set[int] = set()

        def step(self, t: int):
            out = []
            for n in self._hits.upto(t + 1):
                c = codes.get((n, r))
                if c is None:
                    a, b = space.decode(n)
                    c = encode_interval(b - r, a + r) if b - a < 2 * r else -1
                    codes[(n, r)] = c
                if c >= 0 and c not in self._seen and space.decode(c) is not None:
                    self._seen.add(c)
                    out.append(c)
            if self._hits.quiescent(t + 1):
                self.stall()
            return out

    return OpenSet(space, _Thick(), label=f"thick:{r}")


class _DirectedFarCert(Machine):
    """Certifies sup over the first set of the distance to the second set
    is >= r: some overt hit of the first is uniformly farther than r from
    the second set's compact hull.

    One inclusion machine per distinct hit, dovetailed: stage pair(i, j)
    runs machine i for its j-th step, so every machine gets a growing
    share of the stages however many hits arrive after it.
    """

    def __init__(self, space: Space, hits: MonotoneEnumerator[int],
                 other_hull: CompactSet, r: Fraction):
        super().__init__()
        self.space = space
        self._hits = hits.cursor()
        self.other_hull = other_hull
        self.r = r
        self._seen: set[int] = set()
        self._live: list[SemidecisionProcess] = []

    def step(self, t: int) -> bool:
        i, j = unpair(t)
        if i == len(self._live):  # spawn lazily, reading one hit stage at a time
            for n in self._hits.upto(self._hits.stage + 1):
                if n not in self._seen:
                    self._seen.add(n)
                    far = _far_open(self.space, self.space.decode(n), self.r)
                    self._live.append(compact_subset(self.other_hull, far))
        return i < len(self._live) and self._live[i].poll(j + 1) is not None


# Hausdorff bound streams work on an integer grid of 2**-_GRID: cell and
# hull ends are rounded outward, so every bound stays sound, and sorting
# and comparing integers is several times cheaper than Fractions.
_GRID = 64


def _grid_floor(q: Fraction) -> int:
    return (q.numerator << _GRID) // q.denominator


def _grid_ceil(q: Fraction) -> int:
    return -((-q.numerator << _GRID) // q.denominator)


def _cover_radius2(hull: Sequence[tuple[int, int]],
                   cells: Iterable[tuple[int, int]]) -> int | None:
    """Twice the sup, over y in the hull, of the least max(y - a, b - y)
    over the cells (a, b); None without cells.

    Sorted by midpoint, the cells split the line into segments; on the
    segment between midpoints i and i+1 the least is min(y - A, B - y),
    with A the largest left end up to i and B the smallest right end from
    i+1 on, a tent whose maximum over a range sits at its apex or at the
    range end nearest to it.
    """
    order = sorted(cells, key=sum)
    if not order:
        return None
    mids = [a + b for a, b in order]
    pre = list(accumulate((a for a, _ in order), max))
    suf = list(accumulate((b for _, b in reversed(order)), min))[::-1]
    worst = 0
    for p, q in hull:
        p2, q2 = 2 * p, 2 * q
        if p2 <= mids[0]:
            worst = max(worst, 2 * suf[0] - p2)
        if q2 >= mids[-1]:
            worst = max(worst, q2 - 2 * pre[-1])
        first = max(bisect_left(mids, p2) - 1, 0)
        last = min(bisect_right(mids, q2), len(order) - 1)
        for i in range(first, last):
            A, B = pre[i], suf[i + 1]
            u2, v2 = max(mids[i], p2), min(mids[i + 1], q2)
            if u2 > v2:
                continue
            apex = A + B
            if apex < u2:
                worst = max(worst, 2 * B - u2)
            elif apex > v2:
                worst = max(worst, v2 - 2 * A)
            else:
                worst = max(worst, B - A)
    return worst


class _HausdorffBounds(MonotoneEnumerator[tuple[bool, Fraction]]):
    """Both bound streams of a Hausdorff distance from one pass over the
    hits, as items (True, lower bound) and (False, upper bound); only
    improvements are emitted.

    Every hit cell (a, b) of one set holds a point of that set.  Lower
    bound: the largest gap between such a cell and the other set's hull,
    the least over hull pieces [p, q] of max(a - q, p - b).  Upper bound:
    the larger, over the two directions, of the cover radius of one hull
    by the other set's cells (see :func:`_cover_radius2`), recomputed at
    the stages 1, 2, 4, ... that :class:`BoundsReal` reads.  A cell at
    least twice as wide as the upper bound can never lower it and is
    dropped for good.
    """

    def __init__(self, space: Space, hits_a: MonotoneEnumerator[int],
                 hits_b: MonotoneEnumerator[int],
                 hull_a: Sequence[tuple[int, int]], hull_b: Sequence[tuple[int, int]]):
        super().__init__()
        self.space = space
        # (hits of one set, the other set's hull, cells still kept)
        self._sides = [(hits_a.cursor(), hull_b, set()), (hits_b.cursor(), hull_a, set())]
        self._lo = 0
        self._hi2: int | None = None  # twice the upper bound, in grid units

    def step(self, t: int) -> Iterable[tuple[bool, Fraction]]:
        out = []
        lo, hi2 = self._lo, self._hi2
        for hits, hull, cells in self._sides:
            for n in hits.upto(t + 1):
                flo, _, fhi, _ = self.space.fiv(self.space.decode(n))
                a, b = _grid_floor(flo), _grid_ceil(fhi)
                lo = max(lo, min((max(a - q, p - b) for p, q in hull), default=0))
                if hi2 is None or b - a < hi2:
                    cells.add((a, b))
        if t == 0 or lo > self._lo:
            self._lo = lo
            out.append((True, Fraction(lo, 1 << _GRID)))
        if t & (t + 1) == 0:
            worst = 0
            for _, hull, cells in self._sides:
                if hi2 is not None:
                    cells.difference_update([c for c in cells if c[1] - c[0] >= hi2])
                got = _cover_radius2(hull, cells)
                if got is None:
                    return out
                worst = max(worst, got)
            if hi2 is None or worst < hi2:
                self._hi2 = worst
                out.append((False, Fraction(worst, 2 << _GRID)))
        return out


class _Side(MonotoneEnumerator[Fraction]):
    """The bounds of one side of a stream of (is lower, bound) items."""

    def __init__(self, both: MonotoneEnumerator[tuple[bool, Fraction]], lower: bool):
        super().__init__()
        self._both = both.cursor()
        self._lower = lower

    def step(self, t: int) -> Iterable[Fraction]:
        return [v for is_lower, v in self._both.upto(t + 1)
                if is_lower == self._lower]


def hausdorff_distance(m: MetricStructure, e: Ercs, a: LocatedSet, b: LocatedSet,
                       whole_hint: Sequence[int], hi_seed=Fraction(1)) -> CReal:
    """Hausdorff distance between nonempty located sets in a computably
    compact ambient space (the hint names patches covering the space).

    Each set's hull is its closed part cut down to the whole space.
    Described sets on interval spaces: the lower bound is the largest,
    over hits of one set, of the gap between the hit cell and the other
    set's hull; the upper bound is the larger cover radius of one hull by
    the other set's hit cells (see :class:`_HausdorffBounds`).  Both work
    on a 2**-64 grid, rounded outward.  One unit of fuel reads one stage
    of both sets' hits.

    Otherwise the threshold race: upper certificates show each hull lies
    in the open thickening of the other set's hits, lower certificates
    that some hit of one set lies uniformly far from the other hull; the
    sweep for a first upper bound starts at ``hi_seed``, and one unit of
    fuel is one stage of the race.
    """
    from .ercs import whole_space_compact

    space = m.space
    whole = whole_space_compact(e, whole_hint)
    k_a = intersect_closed_compact(a.closed_part, whole)
    k_b = intersect_closed_compact(b.closed_part, whole)
    if _streamed(space, a.cdesc, b.cdesc, k_a.cdesc, k_b.cdesc):
        both = _HausdorffBounds(
            space, a.overt_part.hits, b.overt_part.hits,
            [(_grid_floor(p), _grid_ceil(q)) for p, q in k_a.cdesc],
            [(_grid_floor(p), _grid_ceil(q)) for p, q in k_b.cdesc])
        return BoundsReal(LowerReal(_Side(both, lower=True)),
                          UpperReal(_Side(both, lower=False)))

    codes: dict[tuple[int, Fraction], int] = {}

    def upper_cert(r: Fraction) -> SemidecisionProcess:
        from .kernel import both_accept
        return both_accept(
            compact_subset(k_a, _thickening_open(space, b.overt_part.hits, r, codes)),
            compact_subset(k_b, _thickening_open(space, a.overt_part.hits, r, codes)),
        )

    def lower_cert(r: Fraction) -> SemidecisionProcess:
        from .kernel import any_accepts
        return any_accepts(
            _DirectedFarCert(space, a.overt_part.hits, k_b, r),
            _DirectedFarCert(space, b.overt_part.hits, k_a, r),
        )

    return BracketReal(_BracketMachine(Fraction(0), upper_cert, lower_cert,
                                       hi_seed=Fraction(hi_seed)))
