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

from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from .kernel import (
    Machine,
    MonotoneEnumerator,
    SemidecisionProcess,
    enumerate_list,
    enumerate_step,
    interleave,
    pair,
)
from .spaces import PointName, Space, emission_slot, encode_ratio


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

    def step(t: int):
        out = []
        s = emission_slot(t)
        if s is not None:
            core = _shrunk_core(space, desc, s)
            if core is not None and space.decode(core) is not None:
                out.append(core)
        d = space.decode(t)
        if d is not None and space.basic_subset(d, desc):
            out.append(t)
        return out

    return OpenSet(space, enumerate_step(step, stall_after=space.finite_basic_count),
                   label=f"fixture:{desc!r}")


def _shrunk_core(space: Space, desc, slot: int):
    from .spaces import (CantorSpace, PiecewiseSpace, QhatSpace, StarSpace,
                         _IntervalSpaceBase)
    from .spaces import encode_interval

    if isinstance(space, (_IntervalSpaceBase, PiecewiseSpace)):
        a, b = desc
        if slot == 0:
            return encode_interval(a, b)
        delta = (b - a) / 2 ** (slot + 2)
        return encode_interval(a + delta, b - delta)
    if isinstance(space, CantorSpace):
        from .spaces import word_rank
        return word_rank(desc) if slot == 0 else None
    if isinstance(space, StarSpace):
        return space.encode_ball(desc[1], desc[2]) if slot == 0 else None
    if isinstance(space, QhatSpace):
        if slot != 0:
            return None
        if desc[0] == "iv":
            return space.encode_iv(desc[1], desc[2])
        return space.encode_cof(desc[1])
    return None


# ---------------------------------------------------------------------------
# Canonical names for exactly described sets

def closed_from_cdesc(space: Space, cdesc) -> ClosedSet:
    """Closed set with the given exact description; the complement name
    interleaves a generated skeleton of the complement with the filter of
    every basic certified to avoid the set."""
    gaps = _complement_skeleton(space, cdesc)

    def step(t: int):
        out = []
        s = emission_slot(t)
        if s is not None:
            out.extend(c for c in gaps(s) if space.decode(c) is not None)
        d = space.decode(t)
        if d is not None and space.basic_avoids_cdesc(d, cdesc):
            out.append(t)
        return out

    complement = OpenSet(space,
                         enumerate_step(step, stall_after=space.finite_basic_count),
                         label=f"co:{cdesc!r}")
    return ClosedSet(complement, cdesc=cdesc)


def _complement_skeleton(space: Space, cdesc):
    from .spaces import (CantorSpace, PiecewiseSpace, _IntervalSpaceBase,
                         encode_interval, word_rank)

    if isinstance(space, (_IntervalSpaceBase, PiecewiseSpace)) and cdesc is not None:
        def gaps(s: int) -> list[int]:
            out = []
            if not cdesc:
                width = Fraction(2 ** s)
                out.append(encode_interval(-width, width))
                return out
            lo = cdesc[0][0]
            hi = cdesc[-1][1]
            if s == 0:
                for (_, q1), (p2, _) in zip(cdesc, cdesc[1:]):
                    out.append(encode_interval(q1, p2))
            width = Fraction(2 ** s)
            out.append(encode_interval(lo - width, lo))
            out.append(encode_interval(hi, hi + width))
            return out

        return gaps

    if isinstance(space, CantorSpace) and cdesc is not None:
        complement_words = _cantor_complement(cdesc)

        def gaps(s: int) -> list[int]:
            return [word_rank(w) for w in complement_words] if s == 0 else []

        return gaps

    return lambda s: []


def _cantor_complement(words) -> tuple:
    """Finite union of cylinders equal to the complement of the given union."""
    out: list[str] = []

    def walk(w: str) -> None:
        if any(w.startswith(v) for v in words):
            return
        if not any(v.startswith(w) for v in words):
            out.append(w)
            return
        walk(w + "0")
        walk(w + "1")

    walk("")
    return tuple(out)


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
            for f in _envelope_covers(space, cdesc, s):
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


def _envelope_covers(space: Space, cdesc, slot: int) -> list[frozenset]:
    from .spaces import (
        CantorSpace,
        QhatSpace,
        StarSpace,
        _IntervalSpaceBase,
        encode_interval,
        word_rank,
    )

    out: list[frozenset] = []
    if space.finite_basic_count is not None and hasattr(space, "fs"):
        # finite oracle space: all covering families of up to three basics,
        # swept by slot; the bitmask lane completes the enumeration
        if slot > 2:
            return out
        from itertools import combinations
        idxs = range(space.finite_basic_count)
        for combo in combinations(idxs, slot + 1):
            region = space.region()
            for n in combo:
                region.add(space.decode(n))
            if region.covers_cdesc(cdesc):
                out.append(frozenset(combo))
        return out
    from .spaces import PiecewiseSpace
    if isinstance(space, (_IntervalSpaceBase, PiecewiseSpace)):
        if not cdesc:
            return out
        # one margin envelope per piece; margins sweep down from coarse
        eps = Fraction(4, 2 ** slot)
        out.append(frozenset(encode_interval(p - eps, q + eps) for p, q in cdesc))
        # partition refinements of each piece at dyadic granularity
        pieces = []
        for p, q in cdesc:
            k = min(slot, 6)
            n = 2 ** k
            width = (q - p) / n if q > p else Fraction(0)
            delta = (width or Fraction(1, 2 ** slot)) / 4
            for i in range(n):
                pieces.append(encode_interval(p + i * width - delta,
                                              p + (i + 1) * width + delta))
        out.append(frozenset(pieces))
        return out
    if isinstance(space, CantorSpace):
        if not cdesc:
            return out
        if slot == 0:
            lcp = cdesc[0]
            for w in cdesc[1:]:
                k = 0
                while k < min(len(lcp), len(w)) and lcp[k] == w[k]:
                    k += 1
                lcp = lcp[:k]
            for k in range(len(lcp) + 1):
                out.append(frozenset([word_rank(lcp[:k])]))
        depth = slot
        if depth <= 6:
            words = []
            for w in cdesc:
                words.extend(w + format(u, "b").zfill(depth) if depth else w
                             for u in range(2 ** depth))
            out.append(frozenset(word_rank(w) for w in words))
        return out
    if isinstance(space, StarSpace):
        parts = []
        for piece in cdesc:
            if piece == ("pt_inf",):
                parts.append(space.encode_ball(("inf",), Fraction(1, 2 ** slot)))
            else:
                _, n, lo, hi = piece
                mid = (lo + hi) / 2
                r = (hi - lo) / 2 + Fraction(1, 2 ** (slot + 2))
                parts.append(space.encode_ball((n, mid), r))
        if parts:
            out.append(frozenset(parts))
        return out
    if isinstance(space, QhatSpace):
        kind = cdesc[0]
        if kind == "all":
            out.append(frozenset([space.encode_cof(frozenset())]))
        elif kind == "cof":
            out.append(frozenset([space.encode_cof(cdesc[1])]))
        elif kind == "fin" and cdesc[1]:
            parts = []
            for p in sorted(cdesc[1], key=str):
                if p == ("inf",):
                    parts.append(space.encode_cof(frozenset()))
                else:
                    eps = Fraction(1, 2 ** slot)
                    parts.append(space.encode_iv(p - eps, p + eps))
            out.append(frozenset(parts))
        return out
    return out


def overt_from_cdesc(space: Space, cdesc) -> OvertSet:
    """Canonical overt name: the filter of every basic meeting the set,
    seeded with generated basics around the description.

    Each stage emits up to four seeds from a finite schedule (see
    :func:`_steady_seeds`) and one filter index, so consumers pay a
    constant price per stage.  On interval-like spaces the endpoint cells
    and the anchor grids are dovetailed: endpoint cells narrow to 2**-48
    within 36 stages per endpoint, while the grids, coarse to fine, reach
    2**-12 after about 1,400 stages per piece.
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
    """One generated seed per call; finite overall.

    On interval-like spaces two lanes are dovetailed, one endpoint seed to
    three grid seeds, and either runs on alone once the other is spent:
    see :func:`_endpoint_lane` and :func:`_grid_lane`.
    """
    from .spaces import PiecewiseSpace, _IntervalSpaceBase

    if isinstance(space, (_IntervalSpaceBase, PiecewiseSpace)):
        grid = _grid_lane(cdesc)  # passed three times: three seeds a round
        for batch in zip_longest(_endpoint_lane(cdesc), grid, grid, grid):
            yield from (c for c in batch if c is not None)
        return
    for slot in range(13):
        for c in _meeting_seeds(space, cdesc, slot):
            yield c


def _endpoint_lane(cdesc):
    """Cells of half-width 2**-s around every piece endpoint, s = 13 .. 48:
    where escape and boundary witnesses live."""
    for slot in range(13, 49):
        for p, q in cdesc:
            for x in sorted({p, q}):
                # over the denominator 2**s * den(x): x and the half-width
                yield _cell(x.numerator << slot, x.denominator, x.denominator << slot)


def _grid_lane(cdesc):
    """Relative anchor grids: at slot s = 0, 2, .., 12 the anchors
    p + j * (q - p) / 2**s, j = 0 .. 2**s (just p on a singleton), each in
    a cell of half-width 2**-(s + 1).  A piece of length L is then covered
    within (1/2 + L/2) * 2**-s of every point."""
    for slot in range(0, 13, 2):
        for p, q in cdesc:
            # over the denominator 2**(s + 1) * unit, with unit = den(p) *
            # den(q): anchor j sits at 2 * (lo * 2**s + j * span) and the
            # half-width is unit; generated lazily, as consumers often stop
            # early
            unit = p.denominator * q.denominator
            lo = p.numerator * q.denominator
            span = q.numerator * p.denominator - lo
            first, den = lo << (slot + 1), unit << (slot + 1)
            for j in range((1 << slot) + 1 if span else 1):
                yield _cell(first + 2 * j * span, unit, den)


def _cell(mid: int, half: int, den: int) -> int:
    """Code of the open interval ((mid - half) / den, (mid + half) / den),
    den > 0: the code encode_interval gives, without building Fractions."""
    return pair(encode_ratio(mid - half, den), encode_ratio(mid + half, den))


def _meeting_seeds(space: Space, cdesc, slot: int) -> list[int]:
    from .spaces import CantorSpace, StarSpace, _IntervalSpaceBase
    from .spaces import encode_interval, word_rank

    out: list[int] = []
    if isinstance(space, CantorSpace):
        for w in cdesc:
            out.append(word_rank(w))
    elif isinstance(space, StarSpace):
        for piece in cdesc:
            if piece == ("pt_inf",):
                out.append(space.encode_ball(("inf",), Fraction(1, 2 ** slot)))
            else:
                _, n, lo, hi = piece
                eps = Fraction(1, 2 ** slot)
                for anchor in {lo, (lo + hi) / 2, hi}:
                    out.append(space.encode_ball((n, anchor), eps))
    return out


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
