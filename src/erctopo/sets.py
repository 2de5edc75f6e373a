"""Open, closed, compact, overt and located subsets of a space.

Names are monotone enumerations: an open set lists basic opens whose union
it is, a closed set is an open name of its complement, a compact set lists
finite basic covers, an overt set lists every basic it intersects.  The
operations below are fuel-bounded semidecisions or name constructors; they
match enumerated indices through the space's sound containment calculus,
never through bare index equality alone.

Canonically constructed sets additionally carry an exact description
(``cdesc``) of the underlying set.  Descriptions let containment checks
against enumerated data short-circuit through exact arithmetic; generic
code paths remain available when a description is absent.
"""

from __future__ import annotations

from typing import Sequence

from .kernel import (
    Machine,
    MonotoneEnumerator,
    SemidecisionProcess,
    enumerate_list,
    enumerate_step,
    interleave,
)
from .spaces import PointName, Space, emission_slot


class OpenSet:
    def __init__(self, space: Space, parts: MonotoneEnumerator[int],
                 label: str | None = None):
        self.space = space
        self.parts = parts
        self.label = label

    def __repr__(self) -> str:
        return f"<open {self.label or '?'} in {self.space.name}>"


class ClosedSet:
    """A closed set, given by an open name of its complement."""

    def __init__(self, complement: OpenSet, cdesc=None):
        self.space = complement.space
        self.complement = complement
        self.cdesc = cdesc


class CompactSet:
    """A compact set, given by an enumeration of its finite basic covers."""

    def __init__(self, space: Space, covers: MonotoneEnumerator[frozenset],
                 cdesc=None):
        self.space = space
        self.covers = covers
        self.cdesc = cdesc


class OvertSet:
    """An overt set, given by an enumeration of the basics it meets."""

    def __init__(self, space: Space, hits: MonotoneEnumerator[int], cdesc=None):
        self.space = space
        self.hits = hits
        self.cdesc = cdesc


class LocatedSet:
    """One set carrying both a closed name and an overt name."""

    def __init__(self, closed_part: ClosedSet, overt_part: OvertSet, cdesc=None):
        if closed_part.space is not overt_part.space:
            raise ValueError("located set parts must live in one space")
        self.space = closed_part.space
        self.closed_part = closed_part
        self.overt_part = overt_part
        self.cdesc = cdesc


# ---------------------------------------------------------------------------
# Open-set constructors

def open_of_basic(space: Space, n: int) -> OpenSet:
    if space.decode(n) is None:
        raise ValueError(f"invalid basic index {n} for {space.name}")
    return OpenSet(space, enumerate_list([n]), label=f"basic:{n}")


def open_union(space: Space, opens: Sequence[OpenSet]) -> OpenSet:
    for u in opens:
        if u.space is not space:
            raise ValueError("open union across distinct spaces")
    return OpenSet(space, interleave([u.parts for u in opens]), label="union")


def whole_open(space: Space) -> OpenSet:
    return OpenSet(space, space.all_basics(), label="whole")


def open_from_fixture(space: Space, desc) -> OpenSet:
    """Canonical open name of a basic-open description: the description
    itself first, a generated shrinking core, and the filter of every basic
    formally inside it."""
    inside = space.basic_subset_test(desc)

    def step(t: int):
        out = []
        s = emission_slot(t)
        if s is not None:
            core = space.shrunk_core(desc, s)
            if core is not None and space.decode(core) is not None:
                out.append(core)
        d = space.decode(t)
        if d is not None and inside(d):
            out.append(t)
        return out

    return OpenSet(space, enumerate_step(step, stall_after=space.finite_basic_count),
                   label=f"fixture:{desc!r}")


# ---------------------------------------------------------------------------
# Canonical names for exactly described sets

def closed_from_cdesc(space: Space, cdesc) -> ClosedSet:
    """Closed set with the given exact description; the complement name
    interleaves a generated skeleton of the complement with the filter of
    every basic certified to avoid the set."""

    def step(t: int):
        out = []
        s = emission_slot(t)
        if s is not None:
            out.extend(c for c in space.complement_gaps(cdesc, s)
                       if space.decode(c) is not None)
        d = space.decode(t)
        if d is not None and space.basic_avoids_cdesc(d, cdesc):
            out.append(t)
        return out

    complement = OpenSet(space,
                         enumerate_step(step, stall_after=space.finite_basic_count),
                         label=f"co:{cdesc!r}")
    return ClosedSet(complement, cdesc=cdesc)


def compact_from_cdesc(space: Space, cdesc) -> CompactSet:
    """Canonical compact name: every enumerated finite set provably covers.

    Lanes: generated envelopes and partition refinements of the description,
    the filter of single covering basics, and an exhaustive bitmask lane
    over valid indices so that, in the limit, every finite basic cover is
    enumerated.
    """
    seen: set[frozenset] = set()

    def emit(f: frozenset) -> list[frozenset]:
        if f in seen:
            return []
        seen.add(f)
        return [f]

    def step(t: int):
        out = []
        if t == 0 and not space.cdesc_nonempty(cdesc):
            out.extend(emit(frozenset()))
        s = emission_slot(t)
        if s is not None:
            for f in space.envelope_covers(cdesc, s):
                if all(space.decode(n) is not None for n in f):
                    out.extend(emit(f))
        d = space.decode(t)
        if d is not None and space.cdesc_in_basic(cdesc, d):
            out.extend(emit(frozenset([t])))
        f = _bitmask_cover(space, cdesc, t)
        if f is not None:
            out.extend(emit(f))
        return out

    count = space.finite_basic_count
    limit = None if count is None else max(2 ** count, 64)
    return CompactSet(space, enumerate_step(step, stall_after=limit), cdesc=cdesc)


def _bitmask_cover(space: Space, cdesc, code: int) -> frozenset | None:
    """Decode a bitmask into an index set; emit it when it provably covers."""
    idxs = []
    i = 0
    n = code
    while n:
        if n & 1:
            idxs.append(i)
        n >>= 1
        i += 1
    descs = [space.decode(k) for k in idxs]
    if any(d is None for d in descs):
        return None
    region = space.region()
    for d in descs:
        region.add(d)
    if region.covers_cdesc(cdesc):
        return frozenset(idxs)
    return None


def overt_from_cdesc(space: Space, cdesc) -> OvertSet:
    """Canonical overt name: the filter of every basic meeting the set,
    seeded with generated basics around the description.

    Each stage emits up to four seeds from the space's finite schedule
    (see :meth:`Space.overt_seeds`) and one filter index, so consumers pay
    a constant price per stage.  On subspaces of the line the endpoint
    cells and the anchor grids are dovetailed: endpoint cells narrow to
    2**-48 within 36 stages per endpoint, while the grids, coarse to fine,
    reach 2**-12 after about 1,400 stages per piece.
    """
    seeds = _steady_seeds(space, cdesc)

    def step(t: int):
        out = []
        for _ in range(4):
            c = next(seeds, None)
            if c is not None and space.decode(c) is not None:
                out.append(c)
        d = space.decode(t)
        if d is not None and space.basic_meets_cdesc(d, cdesc):
            out.append(t)
        return out

    return OvertSet(space, enumerate_step(step, stall_after=space.finite_basic_count),
                    cdesc=cdesc)


def _steady_seeds(space: Space, cdesc):
    """The generated lane of an overt name: a finite stream of basics that
    meet the set (see :meth:`Space.overt_seeds`)."""
    return iter(space.overt_seeds(cdesc))


def located_from_cdesc(space: Space, cdesc) -> LocatedSet:
    """Located set (closed and overt names) of an exactly described set."""
    return LocatedSet(closed_from_cdesc(space, cdesc),
                      overt_from_cdesc(space, cdesc), cdesc=cdesc)


def check_located_coherence(a: LocatedSet, stage: int) -> bool:
    """No enumerated hit may sit formally inside the enumerated complement."""
    space = a.space
    region_index = space.cover_index()
    for n in a.closed_part.complement.parts.listing(stage):
        region_index.add(space.decode(n))
    return not any(region_index.contains(space.decode(h))
                   for h in a.overt_part.hits.listing(stage))


# ---------------------------------------------------------------------------
# Semidecisions

class _ContainedMeets(Machine):
    """Accepts when some left item is formally inside some right item."""

    def __init__(self, space: Space, left: MonotoneEnumerator[int],
                 right: MonotoneEnumerator[int]):
        super().__init__()
        self.space = space
        self._left = left.cursor()
        self._right = right.cursor()
        self._right_index = space.cover_index()
        self._left_index = space.basic_inside_index()

    def step(self, t: int) -> bool:
        new_left = self._left.upto(t + 1)
        new_right = self._right.upto(t + 1)
        hit = False
        for n in new_right:
            self._right_index.add(self.space.decode(n))
        for n in new_left:
            d = self.space.decode(n)
            self._left_index.add(d)
            if self._right_index.contains(d):
                hit = True
        if not hit:
            for n in new_right:
                if self._left_index.some_inside(self.space.decode(n)):
                    hit = True
                    break
        if not hit and self._left.quiescent(t + 1) and self._right.quiescent(t + 1):
            self.stall()
        return hit


def member_open(x: PointName, u: OpenSet) -> SemidecisionProcess:
    """Semidecides membership of the named point in the open set."""
    if x.space is not u.space:
        raise ValueError("point and open set live in distinct spaces")
    return _ContainedMeets(u.space, x.neighborhoods, u.parts)


def overt_meets(v: OvertSet, u: OpenSet) -> SemidecisionProcess:
    """Semidecides that the overt set intersects the open set."""
    if v.space is not u.space:
        raise ValueError("overt set and open set live in distinct spaces")
    return _ContainedMeets(u.space, v.hits, u.parts)


def not_subset(v: OvertSet, a: ClosedSet) -> SemidecisionProcess:
    """Semidecides v not-a-subset-of a, i.e. v meets the complement of a."""
    return overt_meets(v, a.complement)


class _CompactSubset(Machine):
    """Accepts when the compact set is certified inside the open set.

    With an exact description, acceptance happens as soon as the enumerated
    parts of the open set provably cover the description.  Otherwise an
    enumerated cover whose members all fit inside enumerated parts decides.
    """

    def __init__(self, k: CompactSet, u: OpenSet):
        super().__init__()
        self.space = k.space
        self._parts = u.parts.cursor()
        self._covers = k.covers.cursor()
        self.cdesc = k.cdesc
        if self.cdesc is not None:
            self._region = self.space.region()
        else:
            self._part_index = self.space.cover_index()
            self._pending: list[list] = []  # lists of unmatched descs

    def step(self, t: int) -> bool:
        new_parts = self._parts.upto(t + 1)
        if self.cdesc is not None:
            for n in new_parts:
                self._region.add(self.space.decode(n))
            if (new_parts or t == 0) and self._region.covers_cdesc(self.cdesc):
                return True
            if self._parts.quiescent(t + 1):
                self.stall()
            return False

        for n in new_parts:
            self._part_index.add(self.space.decode(n))
        if new_parts and self._pending:
            kept = []
            for unmatched in self._pending:
                rest = [d for d in unmatched
                        if not self._part_index.contains(d)]
                if not rest:
                    return True
                kept.append(rest)
            self._pending = kept
        for cover in self._covers.upto(t + 1):
            rest = [self.space.decode(n) for n in sorted(cover)
                    if not self._part_index.contains(self.space.decode(n))]
            if not rest:
                return True
            self._pending.append(rest)
        if self._covers.quiescent(t + 1) and self._parts.quiescent(t + 1):
            self.stall()
        return False


def compact_subset(k: CompactSet, u: OpenSet) -> SemidecisionProcess:
    """Semidecides inclusion of the compact set in the open set."""
    if k.space is not u.space:
        raise ValueError("compact set and open set live in distinct spaces")
    return _CompactSubset(k, u)


# ---------------------------------------------------------------------------
# Compact constructions

class _IntersectCovers(MonotoneEnumerator[frozenset]):
    """Covers of (closed A) intersect (compact K): refine enumerated covers
    of K by dropping members certified inside the complement of A."""

    def __init__(self, a: ClosedSet, k: CompactSet):
        super().__init__()
        self.space = a.space
        self._co_parts = a.complement.parts.cursor()
        self._k_covers = k.covers.cursor()
        self._co_index = self.space.cover_index()
        self._covers: list[list[tuple[int, object]]] = []  # undropped (idx, desc)
        self._emitted: set[frozenset] = set()

    def _emit(self, pairs) -> list[frozenset]:
        f = frozenset(idx for idx, _ in pairs)
        if f in self._emitted:
            return []
        self._emitted.add(f)
        return [f]

    def step(self, t: int):
        out = []
        new_parts = self._co_parts.upto(t + 1)
        for n in new_parts:
            self._co_index.add(self.space.decode(n))
        if new_parts:
            for i, pairs in enumerate(self._covers):
                rest = [(idx, d) for idx, d in pairs
                        if not self._co_index.contains(d)]
                if len(rest) < len(pairs):
                    self._covers[i] = rest
                    out.extend(self._emit(rest))
        for cover in self._k_covers.upto(t + 1):
            pairs = [(n, self.space.decode(n)) for n in sorted(cover)]
            rest = [(idx, d) for idx, d in pairs
                    if not self._co_index.contains(d)]
            self._covers.append(rest)
            out.extend(self._emit(rest))
        if self._k_covers.quiescent(t + 1) and self._co_parts.quiescent(t + 1):
            self.stall()
        return out


def intersect_closed_compact(a: ClosedSet, k: CompactSet) -> CompactSet:
    """Compact name of the intersection of a closed and a compact set."""
    if a.space is not k.space:
        raise ValueError("arguments live in distinct spaces")
    space = a.space
    if a.cdesc is not None and k.cdesc is not None:
        both = space.cdesc_intersect(a.cdesc, k.cdesc)
        if both is not None:
            return compact_from_cdesc(space, both)
    cdesc = None
    return CompactSet(space, _IntersectCovers(a, k), cdesc=cdesc)


class _UnionCovers(MonotoneEnumerator[frozenset]):
    """Covers of a union: merge one enumerated cover of each part."""

    def __init__(self, k1: CompactSet, k2: CompactSet):
        super().__init__()
        self._covers1 = k1.covers.cursor()
        self._covers2 = k2.covers.cursor()
        self._seen1: list[frozenset] = []
        self._seen2: list[frozenset] = []
        self._emitted: set[frozenset] = set()

    def _emit(self, f: frozenset) -> list[frozenset]:
        if f in self._emitted:
            return []
        self._emitted.add(f)
        return [f]

    def step(self, t: int):
        out = []
        new1 = self._covers1.upto(t + 1)
        new2 = self._covers2.upto(t + 1)
        for f1 in new1:
            for f2 in self._seen2:
                out.extend(self._emit(f1 | f2))
        self._seen1.extend(new1)
        for f2 in new2:
            for f1 in self._seen1:
                out.extend(self._emit(f1 | f2))
        self._seen2.extend(new2)
        if self._covers1.quiescent(t + 1) and self._covers2.quiescent(t + 1):
            self.stall()
        return out


def union_compact(k1: CompactSet, k2: CompactSet) -> CompactSet:
    """Compact name of the union of two compact sets."""
    if k1.space is not k2.space:
        raise ValueError("arguments live in distinct spaces")
    space = k1.space
    if k1.cdesc is not None and k2.cdesc is not None:
        both = space.cdesc_union(k1.cdesc, k2.cdesc)
        if both is not None:
            return compact_from_cdesc(space, both)
    return CompactSet(space, _UnionCovers(k1, k2), cdesc=None)
