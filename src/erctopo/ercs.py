"""Effectively relatively compact systems and the algorithms they power.

An ercs equips a space with a sequence of basic opens, a sequence of
compact patches, and a computably enumerable formal-containment relation
asserting that an open fits inside a patch.  Its defining reconstruction
property states that every open set is the union of the basics formally
below some patch it swallows; everything in this module is a fuel-bounded
exploitation of that property: neighborhood search, compact local bases,
subspace transfers, sigma-covers and whole-space compactness.

The pairs (n, kid) of the formal containment whose patch an open is
certified to contain are the pairs that open swallows.  One enumeration,
:func:`swallowed_pairs`, lists them; the basis search, the open-subspace
system and the ``meets`` predicate of the hyperspace search read it.  It
is the one place that certifies a patch inside an open, with one
exception: the consistency refutation of the hyperspace
(``hyperspace._RefuteMachine``) tests ``Ercs.covered`` against its own
region of avoided basics, until it reads the pairs its avoided open
swallows (ROADMAP.md, direction 11).

The enumeration reads no pair itself.  It asks its system where the pairs
its region swallows are (``Ercs.swallowed_from``): an interval system
lists them in closed form on codes, any other system reads its
containment and tests each patch.  The region changes only at a stage
whose parts move it, and only there does the enumeration stop to ask
again.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from heapq import heappop, heappush, merge
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Iterator, Sequence

from .kernel import (
    Machine,
    MonotoneEnumerator,
    SemidecisionProcess,
    enumerate_step,
    unpair,
)
from .sets import (
    ClosedSet,
    CompactSet,
    OpenSet,
    compact_from_cdesc,
    compact_subset,
    intersect_closed_compact,
    open_of_basic,
    open_union,
    union_compact,
)
from .spaces import PointName, Space


class Ercs:
    """Basic opens, compact patches and a formal containment enumeration.

    ``u_stream`` lists the valid basic-open indices, ``k_stream`` the patch
    identifiers; ``r_stream`` enumerates pairs ``(n, kid)`` asserting that
    basic n is contained in patch kid.  Patch values and their exact
    descriptions are obtained per identifier and memoized.

    ``swallowed_from(region, s, limit)`` tells where ``r_stream`` lists the
    pairs a region swallows.  By default it reads ``r_stream`` and tests
    each pair's patch with ``covered``; a system that knows them in closed
    form passes ``swallowed``, a function of the same arguments that lists
    the same stages (see :func:`interval_ercs`).  Only keys of patch
    descriptions are kept here, nothing of a region or an open.
    """

    def __init__(self, space: Space,
                 u_stream: MonotoneEnumerator[int],
                 k_stream: MonotoneEnumerator[int],
                 r_stream: MonotoneEnumerator[tuple[int, int]],
                 compact_cdesc: Callable[[int], object],
                 compact_value: Callable[[int], CompactSet] | None = None,
                 swallowed: Callable[[object, int, int], Iterator[tuple]] | None = None):
        self.space = space
        self.u_stream = u_stream
        self.k_stream = k_stream
        self.r_stream = r_stream
        self._cdesc_fn = compact_cdesc
        self._value_fn = compact_value
        self._swallowed = swallowed
        self._values: dict[int, CompactSet] = {}
        self._cdescs: dict[int, object] = {}
        self._keys: dict[int, object] = {}   # kid -> region key of its description

    def compact_cdesc(self, kid: int):
        try:
            return self._cdescs[kid]
        except KeyError:
            d = self._cdesc_fn(kid)
            self._cdescs[kid] = d
            return d

    def compact_value(self, kid: int) -> CompactSet:
        try:
            return self._values[kid]
        except KeyError:
            pass
        if self._value_fn is not None:
            value = self._value_fn(kid)
        else:
            value = compact_from_cdesc(self.space, self._cdesc_fn(kid))
        self._values[kid] = value
        return value

    def covered(self, region, kid: int) -> bool | None:
        """Whether the region covers the description of patch kid; a patch
        without one is not covered, and gets None.  The description is
        keyed once per patch, and only its key is kept."""
        try:
            key = self._keys[kid]
        except KeyError:
            cdesc = self._cdesc_fn(kid)
            key = self._keys[kid] = None if cdesc is None else region.key(cdesc)
        return None if key is None else region.covers(key)

    def swallowed_from(self, region, s: int, limit: int) -> Iterator[tuple]:
        """The stages g in [s, limit), in order, at which ``r_stream`` lists
        a pair whose patch the region covers or has no description, each
        as (g, those pairs in ``r_stream`` order, the set of the kids among
        them without a description).  The first item is the first such
        stage; a caller that reads on pays its setup once."""
        if s >= limit:
            return iter(())
        if self._swallowed is not None:
            return self._swallowed(region, s, limit)
        return self._walk(region, s, limit)

    def _walk(self, region, s: int, limit: int) -> Iterator[tuple]:
        """``swallowed_from`` by reading ``r_stream`` from stage s, in
        blocks that double from each stage found, and testing each patch
        once with ``covered``."""
        cursor, covered, fit = self.r_stream.cursor(), self.covered, {}
        i, end, block = None, s, 64
        while end < limit:
            end, block = min(limit, end + block), 2 * block
            marks, counts, items, _, n, _ = cursor.groups(end)
            if i is None:
                i = bisect_left(marks, s)
            for i in range(i, n):
                pairs, undescribed = [], ()
                for pair_ in items[counts[i - 1] if i else 0:counts[i]]:
                    kid = pair_[1]
                    if kid not in fit:
                        fit[kid] = covered(region, kid)
                    if fit[kid] is None:
                        undescribed = undescribed or set()
                        undescribed.add(kid)
                    if fit[kid] is not False:
                        pairs.append(pair_)
                if pairs:
                    yield marks[i], pairs, undescribed
                    block = 64
            i = n


# ---------------------------------------------------------------------------
# Instance systems

class _Containment(MonotoneEnumerator[tuple[int, int]]):
    """The formal containment of an interval system, merged from two lanes:
    stage 2n lists (n, n) for each basic n the basics list at stage n, and
    stage 2p + 1 lists unpair(p) for each code p the closure lane lists at
    stage p.  It never stalls.  ``advance`` reads each lane in one
    ``groups`` peek and one ``upto``, however many items they bring."""

    def __init__(self, basics: MonotoneEnumerator[int],
                 closure: MonotoneEnumerator[int]) -> None:
        super().__init__()
        self._basics = basics.cursor()
        self._closure = closure.cursor()

    def advance(self, stage: int, to_emission: bool = False) -> None:
        if self._stage >= stage:
            return
        basics, closure = self._basics, self._closure
        if to_emission:
            # stop after the first stage below ``stage`` that emits, if any
            first = min(2 * basics.next_emission((stage + 1) >> 1),
                        2 * closure.next_emission(stage >> 1) + 1)
            stage = min(stage, first + 1)
        # basics of the stages n with 2n < stage, closure codes of the p
        # with 2p + 1 < stage
        b_end, c_end = (stage + 1) >> 1, stage >> 1
        bmarks, bcounts, bitems, i, bn, ba = basics.groups(b_end)
        cmarks, ccounts, citems, k, cn, ca = closure.groups(c_end)
        items, marks, counts = self._items, self._marks, self._counts
        while i < bn or k < cn:
            # the basics before the next closure stage p (2n < 2p + 1 when
            # n <= p), all at once, then that stage's pairs
            j = bisect_right(bmarks, cmarks[k], i, bn) if k < cn else bn
            if j > i:
                b = bcounts[j - 1]
                off = len(items) - ba
                items.extend(zip(bitems[ba:b], bitems[ba:b]))
                marks.extend([2 * n for n in bmarks[i:j]])
                counts.extend([off + c for c in bcounts[i:j]])
                i, ba = j, b
            if k < cn:
                c = ccounts[k]
                items.extend(map(unpair, citems[ca:c]))
                marks.append(2 * cmarks[k] + 1)
                counts.append(len(items))
                k, ca = k + 1, c
        basics.upto(b_end)
        closure.upto(c_end)
        self._stage = stage

    def quiescent(self, stage: int) -> bool:
        # it never stalls: a reader that only asks, as the swallowed pairs
        # of a closed form do, builds none of it
        return False


def _interval_swallowed(region, s: int, limit: int) -> Iterator[tuple]:
    """``Ercs.swallowed_from`` of an interval system, in closed form: (k, k)
    at stage 2k for each basic k whose patch the region covers, and
    unpair(p) at stage 2p + 1 for each code p of ``closure_pairs`` whose
    patch k it covers.  The region of a line subspace lists both on codes,
    ascending (``covered_patches`` and ``covered_closure_pairs``), and
    they are merged by stage."""
    diagonal = ((2 * k, [(k, k)], ())
                for k in region.covered_patches(s + 1 >> 1, limit + 1 >> 1))
    closure = ((2 * p + 1, [unpair(p)], ())
               for p in region.covered_closure_pairs(s >> 1, limit >> 1))
    return merge(diagonal, closure)


def interval_ercs(space) -> Ercs:
    """Basics are rational intervals; patches are their closures (clamped to
    the carrier); the diagonal pair is always formally contained, plus every
    pair of the space's ``closure_pairs``.  The pairs a region swallows
    come in closed form (:func:`_interval_swallowed`)."""

    def cdesc(kid: int):
        return space.make_cdesc([space.decode(kid)])

    basics = space.all_basics()
    return Ercs(space, basics, basics, _Containment(basics, space.closure_pairs()),
                cdesc, swallowed=_interval_swallowed)


def cantor_ercs(space) -> Ercs:
    """Basics and patches are both cylinders; containment is the prefix order."""

    def cdesc(kid: int):
        return (space.decode(kid),)

    def r_step(t: int):
        if t % 2 == 0:
            return ((t // 2, t // 2),)
        m, k = unpair(t // 2)
        wm, wk = space.decode(m), space.decode(k)
        if wm is not None and wk is not None and wm.startswith(wk):
            return ((m, k),)
        return ()

    return Ercs(space, space.all_basics(), space.all_basics(),
                enumerate_step(r_step), cdesc)


# ---------------------------------------------------------------------------
# The pairs an open swallows

class _SwallowedPairs(MonotoneEnumerator[tuple[int, int]]):
    """The pairs of ``e.r_stream`` whose patch is certified inside u.

    A patch is certified when the region of u's parts covers its
    description or, without one, when its own process
    ``compact_subset(e.compact_value(kid), u)`` accepts: one such process
    is advanced per stage, round robin, and polled on its own fuel, and
    the pairs of its patch are parked until then.  The stream reads no
    pair itself: it asks its system where the region's pairs are
    (``Ercs.swallowed_from``).  A stage lists those pairs in ``r_stream``
    order.  At a stage whose parts move the region it then lists the
    pairs of each patch the region now covers, from the patch's first
    pair on, the patches in the order ``r_stream`` first lists them: the
    system is asked again, over the stages passed.  Last come the pairs of
    a patch its process certifies.  Each pair is listed once.  The listing
    stalls once u's parts and the pairs are quiescent and every process
    left has stalled.
    """

    def __init__(self, e: Ercs, u: OpenSet):
        super().__init__()
        self.e = e
        self._u = u
        self._parts = u.parts.cursor()
        self._region = e.space.region()
        self._ahead: list | None = None   # see _peek
        self._emitted: set[tuple[int, int]] = set()
        # the patches without a description
        self._certified: set[int] = set()
        self._parked: dict[int, list[tuple[int, int]]] = {}  # kid -> its pairs
        self._procs: dict[int, SemidecisionProcess] = {}
        self._fuel: dict[int, int] = {}
        self._live: list[int] = []   # uncertified kids with a process, in kid order
        self._turn = 0

    def _add_parts(self, t: int) -> bool:
        """Adds the parts of stage t to the region; whether they moved it."""
        region, decode = self._region, self.e.space.decode
        version = region.version
        for p in self._parts.upto(t + 1):
            region.add(decode(p))
        return region.version != version

    def _now_covered(self, t: int) -> dict[int, list[tuple[int, int]]]:
        """The described patches with a pair before stage t that the
        region covers and that is not listed, each with those pairs, in the
        order ``r_stream`` first lists them.  Right after the region moved,
        they are the patches it newly covers."""
        out: dict[int, list[tuple[int, int]]] = {}
        emitted = self._emitted
        for _, pairs, undescribed in self.e.swallowed_from(self._region, 0, t):
            for pair_ in pairs:
                if pair_[1] not in undescribed and pair_ not in emitted:
                    out.setdefault(pair_[1], []).append(pair_)
        return out

    def _take(self, pair_: tuple[int, int], undescribed, out: list) -> None:
        """Lists a pair the region swallows, or that of a certified patch
        without description; parks one of a patch still uncertified, and
        starts the process of a fresh one."""
        kid = pair_[1]
        if kid not in undescribed or kid in self._certified:
            out.append(pair_)
        elif kid in self._parked:
            self._parked[kid].append(pair_)
        else:
            self._parked[kid] = [pair_]
            self._procs[kid] = compact_subset(self.e.compact_value(kid), self._u)
            self._fuel[kid] = 0
            insort(self._live, kid)

    def _turn_process(self, out: list) -> None:
        """Advances one patch process and, when it certifies its patch,
        lists the parked pairs."""
        kid = self._live[self._turn % len(self._live)]
        self._turn += 1
        self._fuel[kid] += 1
        if self._procs[kid].poll(self._fuel[kid]) is not None:
            self._certified.add(kid)
            out.extend(self._parked.pop(kid))
            self._live.remove(kid)

    def _apply(self, t: int, moved: bool, peeked: tuple | None = None) -> list:
        """Applies stage t, its parts added (``moved``: they moved the
        region): its pairs that the region swallows (from ``peeked``, the
        ``_peek`` at t, when the system was asked already), the pairs of
        the patches the region now covers, then one process turn.  Returns
        the pairs it lists."""
        out: list = []
        newly = self._now_covered(t) if moved else {}
        if peeked is None:
            found = next(self.e.swallowed_from(self._region, t, t + 1), None)
        else:
            g, found = peeked
            found = found if g == t else None
        _, pairs, undescribed = found or (t, (), ())
        for pair_ in pairs:
            if pair_[1] in newly:
                newly[pair_[1]].append(pair_)
            else:
                self._take(pair_, undescribed, out)
        for kid_pairs in newly.values():
            out.extend(kid_pairs)
        if self._live:
            self._turn_process(out)
        return self._listed(out)

    def _listed(self, out: list) -> list:
        """The pairs of ``out`` not listed before."""
        new = []
        for pair_ in out:
            if pair_ not in self._emitted:
                self._emitted.add(pair_)
                new.append(pair_)
        return new

    def _record(self, t: int, new: list) -> None:
        if new:
            self._items.extend(new)
            self._marks.append(t)
            self._counts.append(len(self._items))

    def step(self, t: int):
        """Applies stage t: its parts join the region, then ``_apply``; the
        listing stalls there when it can."""
        new = self._apply(t, self._add_parts(t))
        if (self.e.r_stream.quiescent(t + 1) and self._parts.quiescent(t + 1)
                and all(self._procs[kid].stalled for kid in self._live)):
            self.stall()
        return new

    def _peek(self, t: int, stage: int) -> tuple[int, tuple | None]:
        """(g, item): the next stage g at or after t at which the system
        lists pairs the region swallows, with its item (g, pairs,
        undescribed); or, with None, a stage g > t below which it lists
        none.  The system's listing, asked up to twice as far as the stages
        passed or up to ``stage``, is read on while the region stands."""
        version = self._region.version
        if self._ahead is not None and self._ahead[0] == version:
            _, listing, horizon, item = self._ahead
            while item is not None and item[0] < t:
                item = self._ahead[3] = next(listing, None)
            if item is not None:
                return item[0], item
            if t < horizon:
                return horizon, None
        horizon = max(stage, 2 * t + 64)
        listing = self.e.swallowed_from(self._region, t, horizon)
        item = next(listing, None)
        self._ahead = [version, listing, horizon, item]
        return (horizon, None) if item is None else (item[0], item)

    def _run(self, t: int, stage: int) -> None:
        """Applies the stages from t, while no patch process runs, up to the
        first that lists a pair or whose parts move the region, else up to
        ``stage``: stage t's parts are added first, then the next stage g
        whose pairs the region swallows is peeked and u's parts are read up
        to it.  Where the pairs may stall first, stage t is stepped."""
        if self._parts.next_emission(t + 1) == t and self._add_parts(t):
            self._stage = t + 1
            self._record(t, self._apply(t, True, self._peek(t, stage)))
            return
        g, found = self._peek(t, stage)
        end = min(g + 1 if found else g, stage)
        if self.e.r_stream.quiescent(end):
            self._stage = t + 1
            self._record(t, self.step(t))
            return
        while (c := self._parts.next_emission(end)) < end:
            if self._add_parts(c):
                self._stage = c + 1
                self._record(c, self._apply(c, True, self._peek(c, stage)))
                return
        self._stage = end
        if found and g < stage:
            self._record(g, self._apply(g, False, (g, found)))

    def advance(self, stage: int, to_emission: bool = False) -> None:
        """Applies the stages below ``stage`` in turns of ``_run``; steps
        every stage while a patch process runs."""
        marks = self._marks
        while self._stage < stage and not self._stalled:
            t = self._stage
            if self._live:
                self._stage = t + 1
                self._record(t, self.step(t))
            else:
                self._run(t, stage)
            if to_emission and marks and marks[-1] == self._stage - 1:
                return


def swallowed_pairs(e: Ercs, u: OpenSet) -> MonotoneEnumerator[tuple[int, int]]:
    """The pairs the open swallows: each pair (n, kid) of ``e.r_stream``
    whose patch is certified inside u, listed once, at the stage whose
    parts of u, pairs and patch processes first certify it.  By the
    reconstruction property u is the union of the basics n of these
    pairs."""
    return _SwallowedPairs(e, u)


# ---------------------------------------------------------------------------
# Basis search and compact neighborhoods

@dataclass(frozen=True)
class BasisWitness:
    n: int
    kid: int
    stage: int


class _BasisSearch(Machine):
    """Accepts at the first pair the open swallows whose basic holds the
    point: a compact base read off :func:`swallowed_pairs`.

    A pair (n, kid) listed at stage g holds from the stage f on at which
    the point's name first lists a basic inside basic n
    (``PointName.first_inside``), so the search accepts at the least
    max(g, f): by the first pair of that stage that holds, in listing
    order, else by the first waiting pair that holds.  Only the swallowed
    pairs are read.  The point is asked about a pair's basic below a
    horizon twice as far as the stages to apply, and asked again only
    once they pass the stage it answered or, with no answer, the horizon:
    the waiting pairs are a heap on that stage and their listing order.
    ``fast_forward`` applies the stages up to each emission of the pairs
    in one turn of its loop.
    """

    def __init__(self, e: Ercs, x: PointName, u: OpenSet):
        super().__init__()
        self.space = e.space
        self.witness: BasisWitness | None = None
        self._x = x
        self._pairs = swallowed_pairs(e, u).cursor()
        # (h, listing position, n, kid, basic n): the pair holds at no
        # stage below h
        self._waiting: list[tuple] = []
        self._listed = 0

    def _asked(self, pairs, horizon: int) -> list[tuple]:
        """The waiting entries of the pairs, each asked below ``horizon``;
        a pair whose index decodes to no basic never holds, and is
        dropped."""
        decode, inside = self.space.decode, self._x.first_inside
        out = []
        for n, kid in pairs:
            d = decode(n)
            if d is not None:
                f = inside(d, horizon)
                out.append((horizon if f is None else f, self._listed, n, kid, d))
                self._listed += 1
        return out

    def _first_due(self, end: int, horizon: int) -> int:
        """The least stage below ``end`` from which a waiting pair holds,
        else ``end``, the first such pair in listing order on top of the
        heap; the point is asked again, below ``horizon``, about each pair
        that may hold below ``end``."""
        waiting, inside, again = self._waiting, self._x.first_inside, []
        while waiting and waiting[0][0] < end:
            w = heappop(waiting)
            f = inside(w[4], horizon)
            again.append((horizon if f is None else f, *w[1:]))
        for w in again:
            heappush(waiting, w)
        return waiting[0][0] if waiting and waiting[0][0] < end else end

    def _quiescent(self, stage: int) -> bool:
        """Whether neither the pairs nor the point's name can grow past
        ``stage``: the pairs are asked first."""
        return self._pairs.quiescent(stage) and self._x.neighborhoods.quiescent(stage)

    def fast_forward(self, t: int, limit: int) -> int:
        """Applies the stages before the next one that could accept or
        stall, as ``step`` would, in one turn per emission g of the
        swallowed pairs (or up to ``limit``, where they have none): it
        finds the least stage at or below g from which a waiting pair
        holds, then whether one of g's pairs holds at g, and g's pairs
        wait.  Stops at that stage, at g when one of its pairs holds or
        both names are quiescent after it, and, when the pairs have no
        emission below ``limit`` and both names are quiescent there, at
        the stall."""
        pairs = self._pairs
        while True:
            g = pairs.next_emission(limit)
            end = g + 1 if g < limit else limit
            first = self._first_due(end, 2 * end)
            if first < end:
                return first
            if g == limit:
                if not self._quiescent(limit):
                    return limit
                # the first stage after which both are quiescent
                return bisect_left(range(t, limit), True,
                                   key=lambda s: self._quiescent(s + 1)) + t
            _, counts, items, m, _, a = pairs.groups(g + 1)
            new = self._asked(items[a:counts[m]], 2 * end)
            if any(w[0] <= g for w in new) or self._quiescent(g + 1):
                return g
            pairs.upto(g + 1)
            for w in new:
                heappush(self._waiting, w)
            t = g + 1

    def step(self, t: int) -> bool:
        horizon = 2 * (t + 1)
        new = self._asked(self._pairs.upto(t + 1), horizon)
        holds = next((w for w in new if w[0] <= t), None)
        if holds is None and self._first_due(t + 1, horizon) <= t:
            holds = self._waiting[0]
        if holds is not None:
            self.witness = BasisWitness(holds[2], holds[3], t)
            return True
        for w in new:
            heappush(self._waiting, w)
        if self._quiescent(t + 1):
            self.stall()
        return False


def basis_search(e: Ercs, x: PointName, u: OpenSet, fuel: int) -> BasisWitness | None:
    """Find a basic n with x in U_n and U_n contained in u, via a patch.

    Multivalued: the first witness in schedule order is returned; None
    means the budget ran out (always, when x lies outside u).
    """
    machine = _BasisSearch(e, x, u)
    if machine.poll(fuel) is None:
        return None
    return machine.witness


def compact_base(e: Ercs, x: PointName, u: OpenSet,
                 fuel: int) -> tuple[OpenSet, CompactSet] | None:
    """Neighborhood V and compact K with x in V, V inside K, K inside u."""
    w = basis_search(e, x, u, fuel)
    if w is None:
        return None
    return open_of_basic(e.space, w.n), e.compact_value(w.kid)


# ---------------------------------------------------------------------------
# Open intersection (used by subspace transfers)

class _OpenIntersection(MonotoneEnumerator[int]):
    """Parts of the intersection of two opens: cross-contained parts, exact
    basic intersections, and (on finitely based spaces) a completion filter."""

    def __init__(self, u1: OpenSet, u2: OpenSet):
        super().__init__()
        self.space = u1.space
        self._parts1 = u1.parts.cursor()
        self._parts2 = u2.parts.cursor()
        self._idx1 = self.space.cover_index()
        self._idx2 = self.space.cover_index()
        self._seen1: list = []
        self._seen2: list = []
        self._emitted: set[int] = set()
        self._pending: list[int] | None = (
            [] if self.space.finite_basic_count is not None else None)

    def _emit(self, n: int | None, out: list) -> None:
        if n is not None and n not in self._emitted:
            self._emitted.add(n)
            out.append(n)

    def step(self, t: int):
        sp = self.space
        out: list[int] = []
        new1 = [sp.decode(n) for n in self._parts1.upto(t + 1)]
        new2 = [sp.decode(n) for n in self._parts2.upto(t + 1)]
        for d in new1:
            self._idx1.add(d)
            if self._idx2.contains(d):
                self._emit(sp.encode_basic(d), out)
            for d2 in self._seen2:
                self._emit(sp.basic_intersection_code(d, d2), out)
        self._seen1.extend(new1)
        for d in new2:
            self._idx2.add(d)
            if self._idx1.contains(d):
                self._emit(sp.encode_basic(d), out)
            for d1 in self._seen1:
                self._emit(sp.basic_intersection_code(d1, d), out)
        self._seen2.extend(new2)
        if self._pending is not None:
            count = sp.finite_basic_count
            if t < count and sp.decode(t) is not None:
                self._pending.append(t)
            keep = []
            for n in self._pending:
                d = sp.decode(n)
                if self._idx1.contains(d) and self._idx2.contains(d):
                    self._emit(n, out)
                else:
                    keep.append(n)
            self._pending = keep
        if self._parts1.quiescent(t + 1) and self._parts2.quiescent(t + 1):
            if self._pending is None or t >= (self.space.finite_basic_count or 0):
                self.stall()
        return out


def open_intersect(u1: OpenSet, u2: OpenSet) -> OpenSet:
    if u1.space is not u2.space:
        raise ValueError("intersection across distinct spaces")
    return OpenSet(u1.space, _OpenIntersection(u1, u2), label="intersection")


# ---------------------------------------------------------------------------
# Subspace transfers

def closed_subspace_compact_base(e: Ercs, a: ClosedSet, x: PointName,
                                 u: OpenSet, fuel: int):
    """Compact base of the closed subspace: search in u joined with the
    complement of a, then trace the neighborhood back and prune the patch."""
    widened = open_union(e.space, [u, a.complement])
    got = compact_base(e, x, widened, fuel)
    if got is None:
        return None
    v, k = got
    return open_intersect(v, u), intersect_closed_compact(a, k)


class _Projection(MonotoneEnumerator[int]):
    """One side of a listing of pairs, each value listed once."""

    def __init__(self, pairs: MonotoneEnumerator[tuple[int, int]], side: int):
        super().__init__()
        self._pairs = pairs.cursor()
        self._side = side
        self._seen: set[int] = set()

    def step(self, t: int):
        out = []
        for pair_ in self._pairs.upto(t + 1):
            v = pair_[self._side]
            if v not in self._seen:
                self._seen.add(v)
                out.append(v)
        if self._pairs.quiescent(t + 1):
            self.stall()
        return out


def open_subspace_ercs(e: Ercs, y: OpenSet) -> Ercs:
    """Restriction of the system to a computably open subspace: its pairs
    are the pairs y swallows, its basics and patches their two sides."""
    kept = swallowed_pairs(e, y)
    return Ercs(e.space, _Projection(kept, 0), _Projection(kept, 1), kept,
                e.compact_cdesc, e.compact_value)


def locally_closed_compact_base(e: Ercs, a: ClosedSet, y: OpenSet,
                                x: PointName, u: OpenSet, fuel: int):
    """Compact base of the intersection of a closed and an open subspace."""
    w = open_intersect(u, y)
    widened = open_union(e.space, [w, a.complement])
    got = compact_base(e, x, widened, fuel)
    if got is None:
        return None
    v, k = got
    return open_intersect(v, w), intersect_closed_compact(a, k)


# ---------------------------------------------------------------------------
# Sigma-compactness and whole-space compactness

def sigma_cover(e: Ercs) -> MonotoneEnumerator[CompactSet]:
    """The patches in enumeration order; their union exhausts the space."""

    class _Sigma(MonotoneEnumerator[CompactSet]):
        def __init__(self) -> None:
            super().__init__()
            self._kids = e.k_stream.cursor()

        def step(self, t: int):
            out = [e.compact_value(kid) for kid in self._kids.upto(t + 1)]
            if self._kids.quiescent(t + 1):
                self.stall()
            return out

    return _Sigma()


def whole_space_compact(e: Ercs, hint: Iterable[int]) -> CompactSet:
    """Compact name of the whole space from a finite covering hint.

    The hint lists patch identifiers whose union is the space; a wrong hint
    silently names a proper subset.
    """
    kids = sorted(set(hint))
    if not kids:
        raise ValueError("whole-space hint must be nonempty")
    parts = [e.compact_value(kid) for kid in kids]
    return reduce(union_compact, parts)


# ---------------------------------------------------------------------------
# Reconstruction-property check

@dataclass
class ProbeReport:
    probe: PointName
    witness: BasisWitness | None

    @property
    def closed(self) -> bool:
        return self.witness is not None


def check_main_property(e: Ercs, u: OpenSet, probes: Sequence[PointName],
                        fuel: int) -> list[ProbeReport]:
    """Run the basis search for each probe point inside u; each witness
    (n, kid) is a finite-stage certificate that the probe is captured by a
    basic below a patch inside u."""
    return [ProbeReport(p, basis_search(e, p, u, fuel)) for p in probes]


# ---------------------------------------------------------------------------
# Generic compact-neighborhood probe (no ercs required)

class _CompactNeighborhoodSearch(Machine):
    """Searches for a compact sandwich between a basic neighborhood of the
    point and an enumerated part of the target open, using only the space's
    sound pinch rule.  On points with no compact neighborhood inside the
    target this pends forever."""

    def __init__(self, space: Space, x: PointName, u: OpenSet):
        super().__init__()
        self.space = space
        self._nbs = x.neighborhoods.cursor()
        self._parts = u.parts.cursor()
        self.found = None
        self._vs: list = []
        self._ps: list = []

    def step(self, t: int) -> bool:
        sp = self.space
        new_v = [d for d in (sp.decode(n) for n in self._nbs.upto(t + 1))
                 if sp.pinch_candidate(d)]
        new_p = [d for d in (sp.decode(n) for n in self._parts.upto(t + 1))
                 if sp.pinch_target(d)]
        for v in new_v:
            for p in self._ps:
                k = sp.local_pinch(v, p)
                if k is not None:
                    self.found = (v, k)
                    return True
        self._vs.extend(new_v)
        for p in new_p:
            for v in self._vs:
                k = sp.local_pinch(v, p)
                if k is not None:
                    self.found = (v, k)
                    return True
        self._ps.extend(new_p)
        if self._nbs.quiescent(t + 1) and self._parts.quiescent(t + 1):
            self.stall()
        return False


def compact_neighborhood_search(space: Space, x: PointName, u: OpenSet) -> SemidecisionProcess:
    return _CompactNeighborhoodSearch(space, x, u)
