"""Effectively relatively compact systems and the algorithms they power.

An ercs equips a space with a sequence of basic opens, a sequence of
compact patches, and a computably enumerable formal-containment relation
asserting that an open fits inside a patch.  Its defining reconstruction
property states that every open set is the union of the basics formally
below some patch it swallows; everything in this module is a fuel-bounded
exploitation of that property: neighborhood search, compact local bases,
subspace transfers, sigma-covers and whole-space compactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Sequence

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
    """

    def __init__(self, space: Space,
                 u_stream: MonotoneEnumerator[int],
                 k_stream: MonotoneEnumerator[int],
                 r_stream: MonotoneEnumerator[tuple[int, int]],
                 compact_cdesc: Callable[[int], object],
                 compact_value: Callable[[int], CompactSet] | None = None):
        self.space = space
        self.u_stream = u_stream
        self.k_stream = k_stream
        self.r_stream = r_stream
        self._cdesc_fn = compact_cdesc
        self._value_fn = compact_value
        self._values: dict[int, CompactSet] = {}
        self._cdescs: dict[int, object] = {}

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


# ---------------------------------------------------------------------------
# Instance systems

def interval_ercs(space) -> Ercs:
    """Basics are rational intervals; patches are their closures (clamped to
    the carrier); the diagonal pair is always formally contained, plus every
    pair certified by endpoint comparison."""

    def cdesc(kid: int):
        d = space.decode(kid)
        return space.make_cdesc([d])

    def r_step(t: int):
        if t % 2 == 0:
            n = t // 2
            if space.decode(n) is not None:
                return ((n, n),)
            return ()
        m, k = unpair(t // 2)
        dm, dk = space.decode(m), space.decode(k)
        if dm is not None and dk is not None and space.basic_in_closure(dm, dk):
            return ((m, k),)
        return ()

    return Ercs(space, space.all_basics(), space.all_basics(),
                enumerate_step(r_step), cdesc)


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
# Basis search and compact neighborhoods

@dataclass(frozen=True)
class BasisWitness:
    n: int
    kid: int
    stage: int


class _BasisSearch(Machine):
    """Dovetails patch-in-open certification, formal containment pairs and
    point membership; accepts at the first pair with both sides certified.

    Membership of the point in a basic is only tested for pairs whose patch
    is already certified inside the target, and retested only when the
    point's name contributes a genuinely smaller neighborhood; patch
    certifications are retested only when the target's covered region
    actually changes.  Both rules keep pending searches near-linear, and
    they make every stage that reads nothing idle, which ``skip_idle``
    skips.
    """

    def __init__(self, e: Ercs, x: PointName, u: OpenSet):
        super().__init__()
        self.e = e
        self.space = e.space
        self.x = x
        self.u = u
        self.witness: BasisWitness | None = None
        self._parts = u.parts.cursor()
        self._nbs = x.neighborhoods.cursor()
        self._pairs = e.r_stream.cursor()
        self._region = self.space.region()
        self._region_version = 0
        self._x_index = self.space.basic_inside_index()
        self._kid_unknown: list[int] = []      # kids awaiting certification
        self._kid_ok: set[int] = set()
        self._kid_proc: dict[int, SemidecisionProcess] = {}
        self._kid_fuel: dict[int, int] = {}
        self._parked: dict[int, list[tuple[int, int]]] = {}  # kid -> pairs
        self._waiting: list[tuple[int, int]] = []  # kid certified, n untested
        self._proc_cursor = 0

    def _certify_kid(self, kid: int) -> bool:
        cdesc = self.e.compact_cdesc(kid)
        if cdesc is not None:
            return self._region.covers_cdesc(cdesc)
        proc = self._kid_proc.get(kid)
        if proc is None:
            proc = compact_subset(self.e.compact_value(kid), self.u)
            self._kid_proc[kid] = proc
            self._kid_fuel[kid] = 0
        return proc.poll(self._kid_fuel[kid]) is not None

    def _n_holds(self, n: int) -> bool:
        d = self.space.decode(n)
        return d is not None and self._x_index.some_inside(d)

    def _absorb_certified(self, pairs, t: int) -> bool:
        for pair_ in pairs:
            if self._n_holds(pair_[0]):
                self.witness = BasisWitness(pair_[0], pair_[1], t)
                return True
            self._waiting.append(pair_)
        return False

    def skip_idle(self, t: int, limit: int) -> int:
        """The next stage at which a source emits.  A stage that reads
        nothing is idle while no patch process runs (one advances every
        stage) and no source has stalled (from then on the quiescence test
        that ends ``step`` may act at any stage)."""
        if self._kid_proc:
            return t
        parts, nbs, pairs = self._parts, self._nbs, self._pairs
        # the rarest emitter first, with the whole limit: later calls then
        # mostly find its next mark without stepping it (asking the busy
        # pairs first measured 6% slower on the line sandwiches)
        s = pairs.next_emission(nbs.next_emission(parts.next_emission(limit)))
        if s > t and (parts.quiescent(s) or nbs.quiescent(s) or pairs.quiescent(s)):
            return t
        return s

    def step(self, t: int) -> bool:
        sp = self.space
        new_parts = self._parts.upto(t + 1)
        for p in new_parts:
            self._region.add(sp.decode(p))
        informative_x = False
        for nb in self._nbs.upto(t + 1):
            d = sp.decode(nb)
            if not self._x_index.some_inside(d):
                self._x_index.add(d)
                informative_x = True
        for pair_ in self._pairs.upto(t + 1):
            n, kid = pair_
            if kid in self._kid_ok:
                if self._absorb_certified([pair_], t):
                    return True
            elif kid in self._parked:
                self._parked[kid].append(pair_)
            else:
                self._parked[kid] = [pair_]
                if self._certify_kid(kid):
                    self._kid_ok.add(kid)
                    if self._absorb_certified(self._parked.pop(kid), t):
                        return True
                else:
                    self._kid_unknown.append(kid)
        # advance one uncertified desc-less patch process per stage
        advanced_proc = False
        if self._kid_proc:
            kids = sorted(k for k in self._kid_proc if k not in self._kid_ok)
            if kids:
                kid = kids[self._proc_cursor % len(kids)]
                self._proc_cursor += 1
                self._kid_fuel[kid] += 1
                advanced_proc = True
        # re-examine pending certifications only when their evidence changed
        region_changed = self._region.version != self._region_version
        self._region_version = self._region.version
        if region_changed or advanced_proc:
            still = []
            for kid in self._kid_unknown:
                if self._certify_kid(kid):
                    self._kid_ok.add(kid)
                    if self._absorb_certified(self._parked.pop(kid, ()), t):
                        return True
                else:
                    still.append(kid)
            self._kid_unknown = still
        if informative_x and self._waiting:
            still_w = []
            for pair_ in self._waiting:
                if self._n_holds(pair_[0]):
                    self.witness = BasisWitness(pair_[0], pair_[1], t)
                    return True
                still_w.append(pair_)
            self._waiting = still_w
        if (self._parts.quiescent(t + 1) and self._nbs.quiescent(t + 1)
                and self._pairs.quiescent(t + 1) and not self._kid_proc):
            if not self._recheck_all(t):
                self.stall()
                return False
            return True
        return False

    def _recheck_all(self, t: int) -> bool:
        for kid in list(self._kid_unknown):
            if self._certify_kid(kid):
                self._kid_ok.add(kid)
                if self._absorb_certified(self._parked.pop(kid, ()), t):
                    return True
        self._kid_unknown = [k for k in self._kid_unknown if k not in self._kid_ok]
        for pair_ in list(self._waiting):
            if self._n_holds(pair_[0]):
                self.witness = BasisWitness(pair_[0], pair_[1], t)
                return True
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


class _SubspaceUStream(MonotoneEnumerator[int]):
    """Basics kept for the open-subspace system: those formally below a
    patch certified inside the subspace."""

    def __init__(self, e: Ercs, y: OpenSet, emit_pairs: bool):
        super().__init__()
        self.e = e
        self.space = e.space
        self._parts = y.parts.cursor()
        self._pairs = e.r_stream.cursor()
        self.emit_pairs = emit_pairs
        self._region = self.space.region()
        self._kid_ok: set[int] = set()
        self._kid_seen: set[int] = set()
        self._kid_unknown: list[int] = []
        self._pairs_by_kid: dict[int, list[tuple[int, int]]] = {}
        self._emitted: set = set()

    def step(self, t: int):
        sp = self.space
        out = []
        new_parts = self._parts.upto(t + 1)
        for p in new_parts:
            self._region.add(sp.decode(p))
        for n, kid in self._pairs.upto(t + 1):
            self._pairs_by_kid.setdefault(kid, []).append((n, kid))
            if kid in self._kid_ok:
                out.extend(self._fresh((n, kid)))
            elif kid not in self._kid_seen:
                self._kid_seen.add(kid)
                cdesc = self.e.compact_cdesc(kid)
                if cdesc is not None and self._region.covers_cdesc(cdesc):
                    self._kid_ok.add(kid)
                    out.extend(self._fresh((n, kid)))
                else:
                    self._kid_unknown.append(kid)
        if new_parts:
            still = []
            for kid in self._kid_unknown:
                cdesc = self.e.compact_cdesc(kid)
                if cdesc is not None and self._region.covers_cdesc(cdesc):
                    self._kid_ok.add(kid)
                    for pair_ in self._pairs_by_kid.get(kid, ()):
                        out.extend(self._fresh(pair_))
                else:
                    still.append(kid)
            self._kid_unknown = still
        if self._parts.quiescent(t + 1) and self._pairs.quiescent(t + 1):
            self.stall()  # certification state can no longer change
        return out

    def _fresh(self, pair_: tuple[int, int]):
        key = pair_ if self.emit_pairs else pair_[0]
        if key in self._emitted:
            return ()
        self._emitted.add(key)
        return (key,)


def open_subspace_ercs(e: Ercs, y: OpenSet) -> Ercs:
    """Restriction of the system to a computably open subspace."""
    kept_pairs = _SubspaceUStream(e, y, emit_pairs=True)
    kept_us = _SubspaceUStream(e, y, emit_pairs=False)

    class _Kids(MonotoneEnumerator[int]):
        def __init__(self, source: MonotoneEnumerator):
            super().__init__()
            self._pairs = source.cursor()
            self._seen: set[int] = set()

        def step(self, t: int):
            out = []
            for _, kid in self._pairs.upto(t + 1):
                if kid not in self._seen:
                    self._seen.add(kid)
                    out.append(kid)
            if self._pairs.quiescent(t + 1):
                self.stall()
            return out

    return Ercs(e.space, kept_us, _Kids(_SubspaceUStream(e, y, emit_pairs=True)),
                kept_pairs, e.compact_cdesc, e.compact_value)


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
